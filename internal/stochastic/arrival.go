// Arrival processes beyond the memoryless Dist set: Markov-modulated
// (MMPP/on-off) bursty sources and a self-similar source built from
// superposed Pareto on/off stations. Both are pure temporal models — they
// replace nextGap, and compose with any Spatial pattern exactly like the
// legacy distributions.
//
// Discretization. The processes are defined on a continuous virtual clock
// and quantized by flooring the absolute event time, not the individual
// gaps: the generator keeps the exact (float64) event epoch and each
// injection is scheduled at uint64(epoch), so rounding errors telescope
// instead of accumulating. With the engine's one-cycle handshake per
// injection the asymptotic discrete rate is exactly lambda/(1+lambda)
// transactions per cycle for a continuous-time rate lambda — the analytic
// target the internal/valid fidelity harness checks against.
//
// Determinism. A source draws from the generator's single seeded rng in a
// fixed per-injection order, independent of kernel, shard count or wall
// clock; state transitions advance only inside nextGap. The schedule is
// drawn up front relative to the completion cycle of the previous
// transaction, so the Sleeper "will not act before" promise holds
// unchanged and both kernels (and every shard count) execute
// byte-identical runs.
package stochastic

import (
	"fmt"
	"math"
	"math/rand"
)

// MaxStates bounds the MMPP state chain.
const MaxStates = 8

// MaxSources bounds the self-similar on/off superposition.
const MaxSources = 64

// maxArrivalParam bounds every rate/dwell parameter, mirroring the
// scenario loader's hostile-input bounds.
const maxArrivalParam = 1e9

// MMPP configures a Markov-modulated Poisson process: a cyclic chain of
// states, each with its own mean injection gap, visited for exponential
// (default) or deterministic dwell times. A state with gap 0 is silent,
// so {rate, 0} two-state chains are the classic on/off bursty source.
type MMPP struct {
	// StateGaps[i] is the mean inter-injection gap in cycles while the
	// chain is in state i; 0 marks a silent (off) state. At least one
	// state must inject.
	StateGaps []float64
	// StateDwells[i] is the mean time in cycles the chain spends in state
	// i per visit.
	StateDwells []float64
	// Deterministic selects fixed dwell times (exactly StateDwells[i]
	// per visit) instead of exponentially distributed ones.
	Deterministic bool
}

// Validate checks the chain shape and parameter bounds.
func (m MMPP) Validate() error {
	if len(m.StateGaps) < 2 || len(m.StateGaps) > MaxStates {
		return fmt.Errorf("stochastic: MMPP needs 2..%d states, got %d", MaxStates, len(m.StateGaps))
	}
	if len(m.StateDwells) != len(m.StateGaps) {
		return fmt.Errorf("stochastic: MMPP has %d gaps but %d dwells",
			len(m.StateGaps), len(m.StateDwells))
	}
	active := false
	for i, g := range m.StateGaps {
		if math.IsNaN(g) || g < 0 || g > maxArrivalParam {
			return fmt.Errorf("stochastic: MMPP state %d gap %v outside [0, %g]", i, g, maxArrivalParam)
		}
		if g > 0 {
			active = true
		}
	}
	if !active {
		return fmt.Errorf("stochastic: MMPP has no injecting state (every gap is 0)")
	}
	for i, d := range m.StateDwells {
		if math.IsNaN(d) || d < 1 || d > maxArrivalParam {
			return fmt.Errorf("stochastic: MMPP state %d dwell %v outside [1, %g]", i, d, maxArrivalParam)
		}
	}
	return nil
}

// Rate returns the analytic continuous-time injection rate (events per
// cycle): the dwell-weighted mean of the per-state rates.
func (m MMPP) Rate() float64 {
	var total, rate float64
	for _, d := range m.StateDwells {
		total += d
	}
	for i, g := range m.StateGaps {
		if g > 0 {
			rate += m.StateDwells[i] / total / g
		}
	}
	return rate
}

// SelfSimilar configures a self-similar source: Sources independent
// on/off stations with Pareto-distributed on and off periods of tail
// index alpha = 3 - 2*Hurst, each injecting Poisson traffic at rate
// 1/PeakGap while on. Superposing heavy-tailed on/off stations is the
// classic construction whose aggregate count process converges to
// fractional Gaussian noise with the configured Hurst parameter
// (Willinger et al.); internal/valid estimates Hurst from the aggregate
// variance of the generated counts.
type SelfSimilar struct {
	// Sources is the number of superposed on/off stations.
	Sources int
	// Hurst is the target Hurst parameter, in (0.5, 0.95].
	Hurst float64
	// OnMean and OffMean are the mean on/off period lengths in cycles.
	OnMean  float64
	OffMean float64
	// PeakGap is the mean injection gap in cycles of one station while
	// on; the aggregate continuous rate is
	// Sources * OnMean/(OnMean+OffMean) / PeakGap.
	PeakGap float64
}

// Validate checks the superposition shape and parameter bounds.
func (s SelfSimilar) Validate() error {
	if s.Sources < 1 || s.Sources > MaxSources {
		return fmt.Errorf("stochastic: self-similar needs 1..%d sources, got %d", MaxSources, s.Sources)
	}
	if math.IsNaN(s.Hurst) || s.Hurst <= 0.5 || s.Hurst > 0.95 {
		return fmt.Errorf("stochastic: Hurst %v outside (0.5, 0.95]", s.Hurst)
	}
	if math.IsNaN(s.OnMean) || s.OnMean < 1 || s.OnMean > maxArrivalParam {
		return fmt.Errorf("stochastic: on-period mean %v outside [1, %g]", s.OnMean, maxArrivalParam)
	}
	if math.IsNaN(s.OffMean) || s.OffMean < 1 || s.OffMean > maxArrivalParam {
		return fmt.Errorf("stochastic: off-period mean %v outside [1, %g]", s.OffMean, maxArrivalParam)
	}
	if math.IsNaN(s.PeakGap) || s.PeakGap <= 0 || s.PeakGap > maxArrivalParam {
		return fmt.Errorf("stochastic: peak gap %v outside (0, %g]", s.PeakGap, maxArrivalParam)
	}
	return nil
}

// Alpha returns the Pareto tail index implied by the Hurst target.
func (s SelfSimilar) Alpha() float64 { return 3 - 2*s.Hurst }

// Rate returns the analytic continuous-time aggregate injection rate
// (events per cycle).
func (s SelfSimilar) Rate() float64 {
	return float64(s.Sources) * s.OnMean / (s.OnMean + s.OffMean) / s.PeakGap
}

// arrival is the pluggable gap process behind Config.MMPP/SelfSimilar.
// nextGap is called exactly once per injection, in issue order, and is the
// only place process state advances.
type arrival interface {
	nextGap(rng *rand.Rand) uint64
}

// mmppArrival walks the state chain on the virtual clock vt. Exponential
// gap draws that overshoot the current state's remaining dwell are
// discarded and redrawn in the next state — exact for exponential gaps by
// memorylessness.
type mmppArrival struct {
	cfg      MMPP
	state    int
	vt       float64 // exact epoch of the last injection
	stateEnd float64 // exact epoch the current state expires
	emitted  uint64  // floor(vt) at the last injection
}

func newMMPPArrival(cfg MMPP, rng *rand.Rand) *mmppArrival {
	a := &mmppArrival{cfg: cfg}
	a.stateEnd = a.dwell(rng)
	return a
}

func (a *mmppArrival) dwell(rng *rand.Rand) float64 {
	d := a.cfg.StateDwells[a.state]
	if !a.cfg.Deterministic {
		d = rng.ExpFloat64() * d
	}
	return d
}

func (a *mmppArrival) nextGap(rng *rand.Rand) uint64 {
	for {
		if g := a.cfg.StateGaps[a.state]; g > 0 {
			if e := rng.ExpFloat64() * g; a.vt+e <= a.stateEnd {
				a.vt += e
				break
			}
		}
		a.vt = a.stateEnd
		a.state++
		if a.state == len(a.cfg.StateGaps) {
			a.state = 0
		}
		a.stateEnd = a.vt + a.dwell(rng)
	}
	t := uint64(a.vt)
	gap := t - a.emitted
	a.emitted = t
	return gap
}

// selfSimArrival superposes the on/off stations on one virtual clock.
// Between station toggles the union of the on stations' Poisson streams
// is itself Poisson at rate onCount/peakGap, so one aggregate exponential
// draw per step suffices; draws crossing a toggle epoch are discarded and
// redrawn under the new rate (exact by memorylessness). The station
// arrays are preallocated at construction and scanned linearly — at most
// MaxSources entries — keeping the injection path allocation-free.
type selfSimArrival struct {
	peakGap float64
	alpha   float64
	onXm    float64 // Pareto scale of on periods
	offXm   float64 // Pareto scale of off periods
	on      []bool
	toggle  []float64 // absolute epoch each station flips state
	onCount int
	vt      float64
	emitted uint64
}

// pareto draws from a Pareto(xm, alpha) via inverse transform; 1-U keeps
// the argument in (0, 1] so the draw is finite.
func pareto(rng *rand.Rand, xm, alpha float64) float64 {
	return xm * math.Pow(1-rng.Float64(), -1/alpha)
}

func newSelfSimArrival(cfg SelfSimilar, rng *rand.Rand) *selfSimArrival {
	alpha := cfg.Alpha()
	a := &selfSimArrival{
		peakGap: cfg.PeakGap,
		alpha:   alpha,
		onXm:    cfg.OnMean * (alpha - 1) / alpha,
		offXm:   cfg.OffMean * (alpha - 1) / alpha,
		on:      make([]bool, cfg.Sources),
		toggle:  make([]float64, cfg.Sources),
	}
	// Start each station in its stationary state so the aggregate rate
	// needs no long burn-in to reach the analytic mean.
	fracOn := cfg.OnMean / (cfg.OnMean + cfg.OffMean)
	for i := range a.on {
		if rng.Float64() < fracOn {
			a.on[i] = true
			a.onCount++
			a.toggle[i] = pareto(rng, a.onXm, alpha)
		} else {
			a.toggle[i] = pareto(rng, a.offXm, alpha)
		}
	}
	return a
}

func (a *selfSimArrival) nextGap(rng *rand.Rand) uint64 {
	for {
		ti, tmin := 0, a.toggle[0]
		for i := 1; i < len(a.toggle); i++ {
			if a.toggle[i] < tmin {
				ti, tmin = i, a.toggle[i]
			}
		}
		if a.onCount > 0 {
			if e := rng.ExpFloat64() * a.peakGap / float64(a.onCount); a.vt+e <= tmin {
				a.vt += e
				break
			}
		}
		a.vt = tmin
		if a.on[ti] {
			a.on[ti] = false
			a.onCount--
			a.toggle[ti] = a.vt + pareto(rng, a.offXm, a.alpha)
		} else {
			a.on[ti] = true
			a.onCount++
			a.toggle[ti] = a.vt + pareto(rng, a.onXm, a.alpha)
		}
	}
	t := uint64(a.vt)
	gap := t - a.emitted
	a.emitted = t
	return gap
}

// newArrival compiles the Config's arrival-process selection (nil when
// the legacy Dist drives the gaps). Invalid configurations panic, like
// every other constructor-time misuse in this package.
func newArrival(cfg Config, rng *rand.Rand) arrival {
	switch {
	case cfg.MMPP != nil && cfg.SelfSimilar != nil:
		panic("stochastic: Config sets both MMPP and SelfSimilar")
	case cfg.MMPP != nil:
		if err := cfg.MMPP.Validate(); err != nil {
			panic(err.Error())
		}
		return newMMPPArrival(*cfg.MMPP, rng)
	case cfg.SelfSimilar != nil:
		if err := cfg.SelfSimilar.Validate(); err != nil {
			panic(err.Error())
		}
		return newSelfSimArrival(*cfg.SelfSimilar, rng)
	}
	return nil
}
