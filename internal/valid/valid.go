// Package valid is the generator-validation harness: it runs each
// stochastic traffic source open-loop against an instantly-accepting
// capture port and checks the injected stream against the source's
// analytic spec — offered load inside a 95% Student-t confidence
// interval, inter-injection times against the exact discretized CDF
// (Kolmogorov–Smirnov), index of dispersion against the finite-window
// MMPP analytic, aggregate-variance Hurst estimates for self-similar
// sources, and χ² message-class shares.
//
// Every check is deterministic: the capture device is registered before
// the generator and stays permanently awake, which pins the engine to a
// cycle-by-cycle schedule whatever its kernel, so the harness takes no
// kernel knob, and the fidelity report is byte-identical across worker
// counts (it does not embed the count). The same property makes each
// check a plain seeded CI test rather than a flaky statistical one.
package valid

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"noctg/internal/ocp"
	"noctg/internal/sim"
	"noctg/internal/stochastic"
	"noctg/internal/sweep"
)

// collectMaxCycles bounds one open-loop capture run; the stock suite's
// slowest source finishes in well under a million cycles.
const collectMaxCycles = 100_000_000

// loadWindows splits the capture into this many equal windows for the
// offered-load confidence interval.
const loadWindows = 16

// ksCrit is the Kolmogorov–Smirnov acceptance coefficient: crit = ksCrit/√n.
// The asymptotic 95% coefficient is 1.358 for i.i.d. samples; discretized
// renewal gaps carry weak phase dependence between neighbours, so the
// harness uses the 99.9% coefficient as the guard band.
const ksCrit = 1.949

// cycleProbe is the capture clock: registered first so its Tick runs
// before the generator's on every cycle, it publishes the current cycle to
// the port and — by always reporting itself awake — pins every kernel to a
// cycle-by-cycle schedule, which makes injection timestamps exact.
type cycleProbe struct{ now uint64 }

func (c *cycleProbe) Name() string               { return "validprobe" }
func (c *cycleProbe) Tick(cycle uint64)          { c.now = cycle }
func (c *cycleProbe) NextWake(now uint64) uint64 { return now }

// capturePort accepts every request on first presentation and records its
// injection cycle and class tag. The harness drives sources with
// ReadFraction = -1 (pure posted writes), so TakeResponse is never
// consulted and inter-injection times equal the drawn gap plus the
// one-cycle handshake exactly.
type capturePort struct {
	probe   *cycleProbe
	times   []uint64
	classes []int
}

func (p *capturePort) TryRequest(req *ocp.Request) bool {
	p.times = append(p.times, p.probe.now)
	p.classes = append(p.classes, req.Class)
	return true
}

func (p *capturePort) TakeResponse() (*ocp.Response, bool) { return nil, false }
func (p *capturePort) Busy() bool                          { return false }

// Source pairs a stochastic generator configuration with its analytic
// expectations. Zero-valued check fields skip that check.
type Source struct {
	// Name labels the source in the report.
	Name string
	// Config is the generator under test. The harness forces open-loop
	// capture settings: ReadFraction -1, Count = Draws, and a default
	// address range when none is set.
	Config stochastic.Config
	// Draws is the number of injections to capture.
	Draws int

	// Rate is the analytic injected-transactions-per-cycle the offered-load
	// CI check targets. Required.
	Rate float64
	// GapCDF, when set, is the exact CDF of the integer inter-injection
	// time checked by the KS test; GapCDFName labels it in the report.
	GapCDF     func(k float64) float64
	GapCDFName string
	// IDCWindow, when nonzero, enables the index-of-dispersion check on
	// counts in windows of that many cycles, asserting IDC ∈ [IDCLow, IDCHigh].
	IDCWindow       uint64
	IDCLow, IDCHigh float64
	// HurstHigh > 0 enables the aggregate-variance Hurst check over base
	// windows of HurstBase cycles, asserting H ∈ [HurstLow, HurstHigh].
	HurstBase           uint64
	HurstLow, HurstHigh float64
	// ClassProbs, when set, enables the χ² check of captured class tags
	// against these probabilities (must sum to 1).
	ClassProbs []float64
}

// Check is one fidelity assertion: the measured Value must lie in
// [Low, High]; Target records the analytic center where one exists.
type Check struct {
	Name   string  `json:"name"`
	Value  float64 `json:"value"`
	Target float64 `json:"target,omitempty"`
	Low    float64 `json:"low"`
	High   float64 `json:"high"`
	Pass   bool    `json:"pass"`
}

// SourceReport is the per-source fidelity result.
type SourceReport struct {
	Source string  `json:"source"`
	Draws  int     `json:"draws"`
	Checks []Check `json:"checks"`
	Pass   bool    `json:"pass"`
}

// Report is the full fidelity report. It deliberately does not embed the
// worker count: the artifact must be byte-identical for every count, and
// the determinism test pins that.
type Report struct {
	Sources []SourceReport `json:"sources"`
	Pass    bool           `json:"pass"`
}

// WriteJSON writes the report as indented JSON, the sweep artifact style.
func (r Report) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// collect runs one generator open-loop and returns its injection cycles
// and class tags.
func collect(cfg stochastic.Config) ([]uint64, []int) {
	eng := sim.NewEngine(sim.Clock{})
	probe := &cycleProbe{}
	port := &capturePort{probe: probe}
	eng.Add(probe)
	g := stochastic.New(0, cfg, port)
	eng.Add(g)
	if _, err := eng.Run(collectMaxCycles, g.Done); err != nil {
		panic(fmt.Sprintf("valid: open-loop capture did not converge: %v", err))
	}
	return port.times, port.classes
}

func boundCheck(name string, value, target, low, high float64) Check {
	return Check{Name: name, Value: value, Target: target, Low: low, High: high,
		Pass: value >= low && value <= high}
}

// CheckSource captures one source and evaluates its checks.
func CheckSource(src Source) SourceReport {
	cfg := src.Config
	cfg.Count = src.Draws
	cfg.ReadFraction = -1 // pure posted writes: inter-injection = gap + 1
	if len(cfg.Ranges) == 0 && cfg.Spatial == nil {
		cfg.Ranges = []ocp.AddrRange{{Base: 0, Size: 0x400}}
	}
	times, classes := collect(cfg)
	// Drop the leading eighth as warmup: arrival state machines start from
	// their stationary draw but the phase of the virtual clock does not.
	skip := len(times) / 8
	times = times[skip:]
	classes = classes[skip:]
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })

	rep := SourceReport{Source: src.Name, Draws: src.Draws, Pass: true}
	add := func(c Check) {
		rep.Checks = append(rep.Checks, c)
		rep.Pass = rep.Pass && c.Pass
	}

	// Offered load: per-window injection counts vs. the analytic rate.
	span := times[len(times)-1] - times[0]
	w := span / loadWindows
	if counts := windowCounts(times, w); len(counts) >= 2 {
		mean, half := meanCI(counts)
		target := src.Rate * float64(w)
		add(Check{Name: "offered-load-ci", Value: mean, Target: target,
			Low: mean - half, High: mean + half,
			Pass: target >= mean-half && target <= mean+half})
	} else {
		add(Check{Name: "offered-load-ci", Pass: false})
	}

	if src.GapCDF != nil {
		gaps := make([]uint64, len(times)-1)
		for i := range gaps {
			gaps[i] = times[i+1] - times[i]
		}
		d := ksDistance(gaps, src.GapCDF)
		crit := ksCrit / math.Sqrt(float64(len(gaps)))
		add(boundCheck("gap-ks-"+src.GapCDFName, d, 0, 0, crit))
	}

	if src.IDCWindow > 0 {
		v := idc(windowCounts(times, src.IDCWindow))
		add(boundCheck("idc", v, (src.IDCLow+src.IDCHigh)/2, src.IDCLow, src.IDCHigh))
	}

	if src.HurstHigh > 0 {
		h := aggVarHurst(windowCounts(times, src.HurstBase), 16)
		add(boundCheck("hurst-aggvar", h, (src.HurstLow+src.HurstHigh)/2,
			src.HurstLow, src.HurstHigh))
	}

	if len(src.ClassProbs) > 0 {
		obs := make([]float64, len(src.ClassProbs))
		for _, c := range classes {
			obs[c]++
		}
		x2 := chiSquareStat(obs, src.ClassProbs)
		df := len(src.ClassProbs) - 1
		add(boundCheck("class-share-chi2", x2, 0, 0, chiSquareCrit95[df-1]))
	}
	return rep
}

// Validate runs every source through CheckSource with the given worker
// count. Results are slot-indexed (sweep.Map), so the report is identical
// for any worker count.
func Validate(sources []Source, workers int) Report {
	reps, err := sweep.Map(workers, sources, func(_ int, s Source) (SourceReport, error) {
		return CheckSource(s), nil
	})
	if err != nil {
		panic(err) // CheckSource never returns an error
	}
	rep := Report{Sources: reps, Pass: true}
	for _, s := range reps {
		rep.Pass = rep.Pass && s.Pass
	}
	return rep
}
