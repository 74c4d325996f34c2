package main

import (
	"math"
	"sort"
)

// Metric kinds: how a number is produced, which decides how two sets are
// compared (a count must repeat exactly; a timing is a median of noisy
// samples).
const (
	kindTiming = "timing" // host wall time of the driver's own body/setup
	kindCount  = "count"  // simulated statistic; identical between runs of one commit
	kindUnit   = "unit"   // tight loop in benchmark/ over one layer's public API
	kindSpan   = "span"   // summed span durations from the traced run
	kindShim   = "shim"   // sampled timing shims around masters and their ports
	kindRatio  = "ratio"  // quotient of two timings taken in the same process
	kindProc   = "proc"   // process-level statistics
)

// metricDef names one metric. Names are cited by later issues and by
// BENCHMARK.json; never rename one.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Kind   string
	// Bound is the relative regression bound of an end-to-end metric;
	// Floor an absolute difference below which a change never counts.
	Bound float64
	Floor float64
}

// endToEndDefs are the six end-to-end metrics, reported per workload.
// failed_share regresses on any increase; tg_cycle_err_pct on an increase
// beyond 0.01 absolute (it is host-independent and repeats exactly).
var endToEndDefs = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Kind: kindTiming, Bound: 0.25},
	{Name: "sim_mcps", Unit: "Mcyc/s", Better: "higher", Kind: kindTiming, Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Kind: kindTiming, Bound: 0.02},
	{Name: "failed_share", Unit: "share", Better: "lower", Kind: kindCount, Bound: 0},
	{Name: "setup_s", Unit: "s", Better: "lower", Kind: kindTiming, Bound: 0.25, Floor: 0.05},
	{Name: "tg_cycle_err_pct", Unit: "%", Better: "lower", Kind: kindCount, Bound: 0, Floor: 0.01},
}

// perLayerDefs is the per-layer ledger, grouped by module. A metric a
// workload does not exercise reads 0 there (noc.* on an AMBA workload is
// the honest zero; a ratio defined on another workload is marked n/a).
var perLayerDefs = []metricDef{
	{Name: "sim.dispatch_ns", Unit: "ns", Better: "lower", Kind: kindUnit},
	{Name: "sim.event_sched_ns", Unit: "ns", Better: "lower", Kind: kindUnit},
	{Name: "sim.run_s", Unit: "s", Better: "lower", Kind: kindSpan},
	{Name: "sim.cycles", Unit: "count", Better: "lower", Kind: kindCount},
	{Name: "sim.ns_per_cycle", Unit: "ns", Better: "lower", Kind: kindRatio},
	{Name: "sim.strict_vs_event", Unit: "ratio", Better: "higher", Kind: kindRatio},
	{Name: "sim.skip_vs_event", Unit: "ratio", Better: "higher", Kind: kindRatio},

	{Name: "core.tick_ns", Unit: "ns", Better: "lower", Kind: kindUnit},
	{Name: "core.tick_share", Unit: "share", Better: "lower", Kind: kindShim},
	{Name: "core.translate_s", Unit: "s", Better: "lower", Kind: kindSpan},
	{Name: "core.tg_insts", Unit: "count", Better: "lower", Kind: kindCount},

	{Name: "cpu.ref_run_s", Unit: "s", Better: "lower", Kind: kindSpan},
	{Name: "cpu.ref_mcps", Unit: "Mcyc/s", Better: "higher", Kind: kindRatio},
	{Name: "trace.bytes", Unit: "B", Better: "lower", Kind: kindCount},
	{Name: "exp.tg_gain", Unit: "ratio", Better: "higher", Kind: kindRatio},

	{Name: "ocp.transactions", Unit: "count", Better: "lower", Kind: kindCount},
	{Name: "ocp.port_call_share", Unit: "share", Better: "lower", Kind: kindShim},

	{Name: "amba.txn_ns", Unit: "ns", Better: "lower", Kind: kindUnit},
	{Name: "amba.busy_cycles", Unit: "count", Better: "lower", Kind: kindCount},
	{Name: "amba.fabric_share", Unit: "share", Better: "lower", Kind: kindShim},

	{Name: "noc.tick_empty_ns", Unit: "ns", Better: "lower", Kind: kindUnit},
	{Name: "noc.tick_oneflit_ns", Unit: "ns", Better: "lower", Kind: kindUnit},
	{Name: "noc.tick_saturated_ns", Unit: "ns", Better: "lower", Kind: kindUnit},
	{Name: "noc.txn_ns", Unit: "ns", Better: "lower", Kind: kindUnit},
	{Name: "noc.flits_routed", Unit: "count", Better: "lower", Kind: kindCount},
	{Name: "noc.ns_per_flit_hop", Unit: "ns", Better: "lower", Kind: kindRatio},
	{Name: "noc.fabric_share", Unit: "share", Better: "lower", Kind: kindShim},

	{Name: "stochastic.tick_ns.poisson", Unit: "ns", Better: "lower", Kind: kindUnit},
	{Name: "stochastic.tick_ns.mmpp", Unit: "ns", Better: "lower", Kind: kindUnit},
	{Name: "stochastic.tick_ns.selfsim", Unit: "ns", Better: "lower", Kind: kindUnit},
	{Name: "stochastic.tick_share", Unit: "share", Better: "lower", Kind: kindShim},

	{Name: "platform.build_us.amba", Unit: "us", Better: "lower", Kind: kindUnit},
	{Name: "platform.build_us.xpipes", Unit: "us", Better: "lower", Kind: kindUnit},
	{Name: "platform.build_ms.mesh16", Unit: "ms", Better: "lower", Kind: kindUnit},
	{Name: "platform.build_alloc_kb", Unit: "KB", Better: "lower", Kind: kindUnit},

	{Name: "shard.speedup_2", Unit: "ratio", Better: "higher", Kind: kindRatio},
	{Name: "shard.overhead_1", Unit: "ratio", Better: "lower", Kind: kindRatio},

	{Name: "sweep.point_overhead_us", Unit: "us", Better: "lower", Kind: kindUnit},
	{Name: "sweep.points", Unit: "count", Better: "lower", Kind: kindCount},
	{Name: "sweep.points_per_s", Unit: "1/s", Better: "higher", Kind: kindRatio},
	{Name: "sweep.render_us_per_point", Unit: "us", Better: "lower", Kind: kindUnit},
	{Name: "sweep.worker_speedup", Unit: "ratio", Better: "higher", Kind: kindRatio},
	{Name: "sweep.curve_levels_simulated", Unit: "count", Better: "lower", Kind: kindCount},
	{Name: "sweep.curve_levels_total", Unit: "count", Better: "lower", Kind: kindCount},
	{Name: "scenario.compile_ms", Unit: "ms", Better: "lower", Kind: kindUnit},

	{Name: "journal.append_sync_us", Unit: "us", Better: "lower", Kind: kindUnit},
	{Name: "journal.overhead_us_per_point", Unit: "us", Better: "lower", Kind: kindRatio},
	{Name: "journal.bytes", Unit: "B", Better: "lower", Kind: kindCount},
	{Name: "journal.resume_ms", Unit: "ms", Better: "lower", Kind: kindSpan},

	{Name: "analytic.compile_us", Unit: "us", Better: "lower", Kind: kindUnit},
	{Name: "analytic.estimate_us", Unit: "us", Better: "lower", Kind: kindUnit},

	{Name: "guard.overhead_pct", Unit: "%", Better: "lower", Kind: kindRatio},

	{Name: "proc.host_speed", Unit: "ratio", Better: "higher", Kind: kindProc},
	{Name: "proc.wall_raw_s", Unit: "s", Better: "lower", Kind: kindProc},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower", Kind: kindProc},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower", Kind: kindProc},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower", Kind: kindProc},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Kind: kindProc},
}

// stat is one metric's value on one workload: the raw per-repeat samples
// first, the statistics derived from them beside. NA marks a metric that
// is not defined on the workload (its median reads 0).
type stat struct {
	Unit    string    `json:"unit"`
	Kind    string    `json:"kind"`
	Median  float64   `json:"median"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
	NA      bool      `json:"na,omitempty"`
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// summarize derives median/min/max/n from raw samples.
func summarize(def metricDef, samples []float64) stat {
	st := stat{Unit: def.Unit, Kind: def.Kind, N: len(samples), Samples: samples}
	if len(samples) == 0 {
		st.NA = true
		st.Samples = []float64{}
		return st
	}
	st.Median = median(samples)
	st.Min, st.Max = math.Inf(1), math.Inf(-1)
	for _, x := range samples {
		st.Min = math.Min(st.Min, x)
		st.Max = math.Max(st.Max, x)
	}
	return st
}

// metricSet collects raw samples by metric name while a run progresses.
type metricSet map[string][]float64

func (m metricSet) add(name string, v float64) { m[name] = append(m[name], v) }

// set replaces a metric's samples with one value (counts, single shots).
func (m metricSet) set(name string, v float64) { m[name] = []float64{v} }

// finish turns the collected samples into stats for every definition, in
// definition order; metrics never sampled come out n/a.
func (m metricSet) finish(defs []metricDef) map[string]stat {
	out := make(map[string]stat, len(defs))
	for _, d := range defs {
		out[d.Name] = summarize(d, m[d.Name])
	}
	return out
}
