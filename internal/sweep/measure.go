package sweep

import (
	"fmt"
	"math"

	"noctg/internal/ocp"
	"noctg/internal/platform"
	"noctg/internal/sim"
)

// Measure is a sweep point's measurement plan: a warmup window whose
// statistics are discarded, one or more measurement epochs whose statistics
// are the point's result, and an optional drain window. There is one
// accounting — every point's Result is read from the per-master traffic
// meters and the stats registry at epoch boundaries (see measure) — and the
// plan only says where the boundaries fall. A point without a Measure runs
// the zero plan: no warmup, one open epoch from cycle 0 to workload
// completion, no drain, so its summary covers the whole run, cold-start
// transients included, and its Result carries no Phases block.
//
// Two measurement modes exist:
//
//   - fixed: Epochs measurement epochs of EpochCycles each (Epochs = 1
//     with EpochCycles = 0 is the zero plan written out: the same Result
//     plus the Phases block, which the phased property tests pin);
//   - adaptive: CITarget > 0 runs epochs of EpochCycles until the relative
//     95% confidence-interval half-width of the per-epoch latency means
//     drops to the target, a growing-latency saturation trend is detected,
//     or MaxEpochs is reached.
type Measure struct {
	// WarmupCycles is the discarded lead-in window (0 = none).
	WarmupCycles uint64 `json:"warmup,omitempty"`
	// EpochCycles is the measurement epoch length in cycles. 0 means one
	// open epoch running to workload completion.
	EpochCycles uint64 `json:"epoch_cycles,omitempty"`
	// Epochs is the fixed epoch count (fixed mode; default 1). Mutually
	// exclusive with CITarget.
	Epochs int `json:"epochs,omitempty"`
	// MaxEpochs caps adaptive mode (default 32). Only valid with CITarget.
	MaxEpochs int `json:"max_epochs,omitempty"`
	// CITarget is the adaptive-mode convergence target: the relative 95%
	// confidence-interval half-width of the epoch latency means, e.g. 0.05
	// for ±5%.
	CITarget float64 `json:"ci_target,omitempty"`
	// DrainCycles bounds the post-measurement completion window (0 = none).
	DrainCycles uint64 `json:"drain,omitempty"`
}

// defaultMaxEpochs caps adaptive runs that never converge.
const defaultMaxEpochs = 32

// minCIEpochs is the smallest epoch count a confidence interval is
// computed from.
const minCIEpochs = 3

// Saturation trend detection: satTrendEpochs consecutive epochs each
// raising the latency mean by at least satTrendGrowth marks the point
// saturated (queues growing without a steady state).
const (
	satTrendEpochs = 4
	satTrendGrowth = 1.08
)

// Validate checks the measurement configuration.
func (m Measure) Validate() error {
	if m.CITarget < 0 || m.CITarget >= 1 || m.CITarget != m.CITarget {
		return fmt.Errorf("sweep: ci_target %g outside [0, 1)", m.CITarget)
	}
	if m.Epochs < 0 {
		return fmt.Errorf("sweep: negative epochs %d", m.Epochs)
	}
	if m.MaxEpochs < 0 {
		return fmt.Errorf("sweep: negative max_epochs %d", m.MaxEpochs)
	}
	if m.CITarget > 0 {
		if m.Epochs > 0 {
			return fmt.Errorf("sweep: epochs and ci_target are mutually exclusive (fixed vs adaptive mode)")
		}
		if m.EpochCycles == 0 {
			return fmt.Errorf("sweep: ci_target needs epoch_cycles > 0")
		}
	} else if m.MaxEpochs > 0 {
		return fmt.Errorf("sweep: max_epochs needs ci_target (adaptive mode)")
	}
	if m.Epochs > 1 && m.EpochCycles == 0 {
		return fmt.Errorf("sweep: %d epochs need epoch_cycles > 0", m.Epochs)
	}
	return nil
}

// maxEpochs resolves the effective epoch cap.
func (m Measure) maxEpochs() int {
	if m.CITarget > 0 {
		if m.MaxEpochs > 0 {
			return m.MaxEpochs
		}
		return defaultMaxEpochs
	}
	if m.Epochs > 0 {
		return m.Epochs
	}
	return 1
}

// EpochStat is one measurement epoch's statistics, aggregated over all
// masters from the system's stats registry at the epoch boundary.
type EpochStat struct {
	Epoch      int    `json:"epoch"`
	StartCycle uint64 `json:"start_cycle"`
	EndCycle   uint64 `json:"end_cycle"`
	// Transactions counts completed transactions (accepted posted writes +
	// responded reads) inside the epoch; Reads the responded reads.
	Transactions uint64 `json:"transactions"`
	Reads        uint64 `json:"reads"`
	// LatencyMean / LatencyMax summarise the epoch's accept-to-response
	// read latencies; ReqLatencyMean / ReqLatencyMax the assert-to-response
	// latencies including source queueing (the load-latency curve metric).
	LatencyMean    float64 `json:"latency_mean_cycles"`
	LatencyMax     uint64  `json:"latency_max_cycles"`
	ReqLatencyMean float64 `json:"req_latency_mean_cycles"`
	ReqLatencyMax  uint64  `json:"req_latency_max_cycles"`
	// ThroughputTPK is completed transactions per thousand epoch cycles.
	ThroughputTPK float64 `json:"throughput_tpk"`
	FlitsRouted   uint64  `json:"flits_routed,omitempty"`
	BusBusyCycles uint64  `json:"bus_busy_cycles,omitempty"`
	// Counters is the epoch's full registry counter snapshot — the
	// per-master, per-VC, per-message-class breakdowns (map keys serialise
	// sorted, so artifacts stay byte-deterministic).
	Counters map[string]uint64 `json:"counters,omitempty"`
}

// PhaseStats is the per-phase breakdown of a Result whose point carries a
// Measure (omitted entirely on a point that runs the zero plan).
type PhaseStats struct {
	WarmupCycles  uint64 `json:"warmup_cycles"`
	MeasureCycles uint64 `json:"measure_cycles"`
	DrainCycles   uint64 `json:"drain_cycles"`
	// Completed reports whether the workload finished and the fabric
	// drained (open-loop curve runs intentionally never complete).
	Completed bool `json:"completed"`
	// Converged reports that adaptive mode met its CI target; Saturated
	// that the growing-latency trend stopped it instead.
	Converged bool `json:"converged"`
	Saturated bool `json:"saturated"`
	// CIHalfWidthRel is the final relative 95% CI half-width of the epoch
	// latency means (0 when fewer than minCIEpochs epochs ran).
	CIHalfWidthRel float64 `json:"ci_half_width_rel"`
	// ReqLatency summarises assert-to-response request latency over the
	// whole measure phase.
	ReqLatency sim.HistogramSnapshot `json:"req_latency"`
	Epochs     []EpochStat           `json:"epochs"`
}

// tTable97p5 holds two-sided 95% Student-t quantiles for df 1..30; larger
// dfs use the normal 1.96.
var tTable97p5 = [30]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// TQuantile returns the two-sided 95% Student-t quantile for df degrees
// of freedom (shared by the adaptive-epoch CI stop rule here and the
// offered-load fidelity check in internal/valid).
func TQuantile(df int) float64 {
	if df < 1 {
		return math.Inf(1)
	}
	if df <= len(tTable97p5) {
		return tTable97p5[df-1]
	}
	return 1.96
}

// relCIHalfWidth returns the relative 95% confidence-interval half-width
// of the epochs' request-latency means (the curve metric). An epoch
// without read samples makes the estimate meaningless and returns +Inf
// (never converged).
func relCIHalfWidth(epochs []EpochStat) float64 {
	n := len(epochs)
	if n < 2 {
		return math.Inf(1)
	}
	var mean float64
	for _, e := range epochs {
		if e.Reads == 0 {
			return math.Inf(1)
		}
		mean += e.ReqLatencyMean
	}
	mean /= float64(n)
	if mean <= 0 {
		return math.Inf(1)
	}
	var ss float64
	for _, e := range epochs {
		d := e.ReqLatencyMean - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(n-1))
	return TQuantile(n-1) * sd / math.Sqrt(float64(n)) / mean
}

// latencyTrendGrowing reports whether every consecutive epoch pair grew
// the latency mean by the saturation factor.
func latencyTrendGrowing(epochs []EpochStat) bool {
	if len(epochs) < satTrendEpochs {
		return false
	}
	tail := epochs[len(epochs)-satTrendEpochs:]
	for i := 1; i < len(tail); i++ {
		if tail[i].Reads == 0 || tail[i].ReqLatencyMean < tail[i-1].ReqLatencyMean*satTrendGrowth {
			return false
		}
	}
	return true
}

// systemMeters resolves the one meter of each master's traffic: the port
// monitor when runPointExec wrapped one around the port (TG replay
// masters, which carry no meter), otherwise the master itself (stochastic
// generators, on every grid point and curve level alike).
func systemMeters(sys *platform.System) ([]ocp.TrafficMeter, error) {
	meters := make([]ocp.TrafficMeter, len(sys.Masters))
	for i, m := range sys.Masters {
		if mon := sys.Monitors[i]; mon != nil {
			meters[i] = mon
			continue
		}
		mt, ok := m.(ocp.TrafficMeter)
		if !ok {
			return nil, fmt.Errorf("sweep: master %d exports no traffic statistics (build with Config.Trace)", i)
		}
		meters[i] = mt
	}
	return meters, nil
}

// epochTotals accumulates the measured epochs' totals.
type epochTotals struct {
	txns, reads uint64
	flits, busy uint64
	latency     *sim.Histogram
	reqLatency  *sim.Histogram
}

// measure runs the point's plan on an assembled system and fills the
// Result — the one accounting every grid point, journaled point and curve
// level goes through. At each epoch boundary it settles the stats registry,
// reads the per-master traffic meters and the fabric counters, and zeroes
// the registry for the next epoch; nothing walks an event log (sweep
// platforms keep none). The summary fields carry the aggregate of the
// measured epochs — steady state only, warmup and drain traffic excluded —
// and, for a point with a Measure, res.Phases the per-epoch breakdown.
func measure(sys *platform.System, m *Measure, maxCycles uint64, res *Result) error {
	meters, err := systemMeters(sys)
	if err != nil {
		return err
	}
	var plan Measure // a nil Measure is the zero plan
	if m != nil {
		plan = *m
	}
	reg := sys.Stats
	tot := epochTotals{latency: sim.NewLatencyHistogram(), reqLatency: sim.NewLatencyHistogram()}
	ps := &PhaseStats{}
	adaptive := plan.CITarget > 0

	collect := func(epoch int, start, end uint64) EpochStat {
		reg.Sync(end)
		eh := sim.NewLatencyHistogram()
		rh := sim.NewLatencyHistogram()
		st := EpochStat{Epoch: epoch, StartCycle: start, EndCycle: end}
		for _, mt := range meters {
			st.Transactions += mt.Transactions()
			st.Reads += mt.Reads()
			eh.Merge(mt.LatencyHist())
			rh.Merge(mt.RequestLatencyHist())
		}
		st.LatencyMean = eh.Mean()
		st.LatencyMax = eh.Max()
		st.ReqLatencyMean = rh.Mean()
		st.ReqLatencyMax = rh.Max()
		if end > start {
			st.ThroughputTPK = float64(st.Transactions) * 1000 / float64(end-start)
		}
		if sys.Net != nil {
			st.FlitsRouted = sys.Net.FlitsRouted()
		}
		if sys.Bus != nil {
			st.BusBusyCycles = sys.Bus.BusyCycles()
		}
		if m != nil {
			st.Counters = reg.CounterSnapshot()
		}
		tot.txns += st.Transactions
		tot.reads += st.Reads
		tot.flits += st.FlitsRouted
		tot.busy += st.BusBusyCycles
		tot.latency.Merge(eh)
		tot.reqLatency.Merge(rh)
		reg.Reset()
		return st
	}

	cfg := sim.Phases{
		Warmup:    plan.WarmupCycles,
		Epoch:     plan.EpochCycles,
		MaxEpochs: plan.maxEpochs(),
		Drain:     plan.DrainCycles,
		AfterWarmup: func(now uint64) {
			// Discard warmup-phase statistics: settle the lazy credits so
			// they land (and are zeroed) on the warmup side of the boundary.
			reg.Sync(now)
			reg.Reset()
		},
		AfterEpoch: func(epoch int, start, end uint64) bool {
			ps.Epochs = append(ps.Epochs, collect(epoch, start, end))
			if !adaptive {
				return true
			}
			if latencyTrendGrowing(ps.Epochs) {
				ps.Saturated = true
				return false
			}
			if len(ps.Epochs) >= minCIEpochs {
				if rel := relCIHalfWidth(ps.Epochs); rel <= plan.CITarget {
					ps.Converged = true
					return false
				}
			}
			return true
		},
	}

	var pr sim.PhasedResult
	if m == nil {
		// The zero plan is one window from cycle 0 — System.Run — so a run
		// the budget cuts short fails with Run's error, not a phased plan's.
		if _, err = sys.Run(maxCycles); err == nil {
			cfg.AfterEpoch(0, 0, sys.Engine.Cycle())
			pr.Completed = true
		}
	} else {
		pr, err = sys.RunPhased(cfg, maxCycles)
	}
	if err != nil {
		return err
	}
	if m != nil {
		ps.WarmupCycles = pr.WarmupCycles
		ps.MeasureCycles = pr.MeasureCycles
		ps.DrainCycles = pr.DrainCycles
		ps.Completed = pr.Completed
		if rel := relCIHalfWidth(ps.Epochs); !math.IsInf(rel, 1) {
			ps.CIHalfWidthRel = rel
		}
		ps.ReqLatency = tot.reqLatency.Snapshot()
		res.Phases = ps
	}

	res.Engine = sys.EngineSnapshot()
	res.Transactions = tot.txns
	res.Reads = tot.reads
	res.Latency = tot.latency.Snapshot()
	res.FlitsRouted = tot.flits
	res.BusBusyCycles = tot.busy
	if pr.Completed {
		// A completed workload reports the paper's makespan metrics.
		makespan := sys.Makespan()
		res.MakespanCycles = makespan
		res.MakespanNS = sys.Engine.Clock().NS(makespan)
		if makespan > 0 {
			res.ThroughputTPK = float64(res.Transactions) * 1000 / float64(makespan)
		}
	} else if pr.MeasureCycles > 0 {
		// Open-loop steady state: throughput over the measured window.
		res.ThroughputTPK = float64(res.Transactions) * 1000 / float64(pr.MeasureCycles)
	}
	return nil
}
