package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// options selects what one invocation runs.
type options struct {
	seed      int64
	short     bool
	trace     bool
	repeats   int     // repeats per workload and pass when seconds is 0
	seconds   float64 // time-based repeats: keep repeating until setup+body time reaches this
	workloads []string
	log       io.Writer // progress lines
}

// document is the result file: run conditions, then per workload the raw
// per-repeat samples with the statistics derived from them.
type document struct {
	Schema     string           `json:"schema"`
	Short      bool             `json:"short"` // tiny self-test sizes: the numbers mean nothing
	Traced     bool             `json:"traced"`
	Seed       int64            `json:"seed"`
	Repeats    int              `json:"repeats"`
	Seconds    float64          `json:"seconds"`
	Nproc      int              `json:"nproc"`
	Gomaxprocs int              `json:"gomaxprocs"`
	Go         string           `json:"go"`
	Commit     string           `json:"commit"`
	Workloads  []workloadResult `json:"workloads"`
	Spans      []span           `json:"spans,omitempty"`
}

const schemaName = "noctg-benchmark/1"

type workloadResult struct {
	Name         string          `json:"name"`
	Why          string          `json:"why"`
	Attempted    int             `json:"attempted"`
	Failed       int             `json:"failed"`
	FailedChecks []string        `json:"failed_checks,omitempty"`
	EndToEnd     map[string]stat `json:"end_to_end"`
	PerLayer     map[string]stat `json:"per_layer,omitempty"`
	Ledger       *ledger         `json:"ledger,omitempty"`
}

// minRepeats is the floor under time-based repeat counts: the protocol's
// R = 5. A median of fewer samples is a single shot in disguise.
const minRepeats = 5

// wstate is one workload's progress through a run.
type wstate struct {
	w            workload
	probeIters   int
	e2e, layer   metricSet
	last         *bodyOut
	counts       map[string]float64 // first repeat's simulated statistics
	countsRepeat bool
	attempted    int
	failed       int
	failedChecks []string
	elapsed      [2]float64 // setup+body seconds spent, per pass
	reps         [2]int
	tracedWalls  []float64
	spanS        map[string][]float64
}

func (st *wstate) fail(name string, err error) {
	st.attempted++
	st.failed++
	st.failedChecks = append(st.failedChecks, fmt.Sprintf("%s: %v", name, err))
}

func (st *wstate) record(checks []check) {
	for _, c := range checks {
		st.attempted++
		if c.err != nil {
			st.failed++
			st.failedChecks = append(st.failedChecks, fmt.Sprintf("%s: %v", c.name, c.err))
		}
	}
}

func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// A sub-millisecond setup timed once is mostly timer, cache and GC noise,
// all of it additive, so a repeat sets up again and again — the last
// product feeds the body — until it has spent setupWindow or made
// setupRuns, and keeps the fastest; setup_s is the median of the repeats'
// fastest. (Per-repeat medians of the same samples spread 40–100 µs on the
// 50 µs library setup; the minima 27–35 µs.)
const (
	setupRuns   = 101
	setupWindow = 50 * time.Millisecond
)

// timedSetup returns the fastest setup time and the bytes one setup
// allocates. Only the first run is bracketed by ReadMemStats: it stops the
// world and leaves the caches cold, which a 50 µs setup would mostly measure.
func timedSetup(w workload) (seconds float64, alloc uint64, err error) {
	var samples []float64
	var spent time.Duration
	for len(samples) < setupRuns && (len(samples) == 0 || spent < setupWindow) {
		w.cleanup()
		first := len(samples) == 0
		var before uint64
		if first {
			before = memStats().TotalAlloc
		}
		start := time.Now()
		err := w.setup()
		d := time.Since(start)
		if first {
			alloc = memStats().TotalAlloc - before
		}
		spent += d
		samples = append(samples, d.Seconds())
		if err != nil {
			return d.Seconds(), alloc, err
		}
	}
	return slices.Min(samples), alloc, nil
}

// repeat runs one setup + body. pass is 0 untraced, 1 traced.
func (st *wstate) repeat(tr *tracer, pass int) {
	w := st.w
	firstSpan := 0
	if tr != nil {
		tr.workload, tr.repeat = w.name(), st.reps[pass]
		firstSpan = len(tr.spans)
	}
	st.reps[pass]++

	runtime.GC()
	probeMS := hostProbe(st.probeIters)
	setupS, setupAlloc, err := timedSetup(w)
	if err != nil {
		st.elapsed[pass] += setupS
		st.fail("setup", err)
		return
	}
	runtime.GC()
	m1 := memStats()
	start := time.Now()
	out, err := w.body(tr)
	wallS := time.Since(start).Seconds()
	m2 := memStats()
	probeMS = (probeMS + hostProbe(st.probeIters)) / 2
	st.elapsed[pass] += setupS + wallS
	if err != nil {
		st.fail("body", err)
		return
	}
	st.attempted += out.ops
	st.failed += out.failed

	if st.counts == nil {
		st.counts, st.countsRepeat = out.counts, true
	} else if !reflect.DeepEqual(st.counts, out.counts) {
		st.countsRepeat = false
	}
	if pass == 1 {
		st.tracedWalls = append(st.tracedWalls, wallS)
		totals := make(map[string]float64)
		for _, s := range tr.spans[firstSpan:] {
			totals[s.Name] += s.End - s.Start
		}
		for name, v := range totals {
			st.spanS[name] = append(st.spanS[name], v)
		}
		return
	}
	st.last = out

	st.e2e.add("wall_s", wallS)
	st.e2e.add("sim_mcps", float64(out.cycles)/wallS/1e6)
	// One setup plus the body: a zero-alloc steady state (the mesh) would
	// otherwise report 0, and work moved into setup must show.
	st.e2e.add("alloc_mb", float64(setupAlloc+m2.TotalAlloc-m1.TotalAlloc)/1e6)
	st.e2e.add("setup_s", setupS)
	st.layer.add("proc.host_speed", probeRefMS/probeMS)
	for name, v := range out.endToEnd {
		st.e2e.add(name, v)
	}

	for name, v := range out.derived {
		st.layer.add(name, v)
	}
	if ref := out.derived["cpu.ref_run_s"]; ref > 0 {
		st.layer.add("cpu.ref_mcps", out.counts["cpu.ref_cycles"]/ref/1e6)
	}
	if out.cycles > 0 {
		st.layer.add("sim.ns_per_cycle", wallS*1e9/float64(out.cycles))
	}
	if flits := out.counts["noc.flits_routed"]; flits > 0 {
		st.layer.add("noc.ns_per_flit_hop", wallS*1e9/flits)
	}
	if pts := out.counts["sweep.points"]; pts > 0 {
		st.layer.add("sweep.points_per_s", pts/wallS)
	}
	st.layer.add("proc.gc_cycles", float64(m2.NumGC-m1.NumGC))
	st.layer.add("proc.gc_pause_ms", float64(m2.PauseTotalNs-m1.PauseTotalNs)/1e6)
}

// wants reports whether the workload should run another repeat of a pass.
func (st *wstate) wants(o options, pass int) bool {
	if o.seconds <= 0 {
		return st.reps[pass] < o.repeats
	}
	return st.reps[pass] < minRepeats || st.elapsed[pass] < o.seconds
}

// runAll executes the selected workloads and returns the result document.
func runAll(o options) (*document, error) {
	cfg := &config{seed: o.seed, sz: fullSizes(), nproc: runtime.NumCPU()}
	if o.short {
		cfg.sz = shortSizes()
	}
	if p := runtime.GOMAXPROCS(0); p < cfg.nproc {
		cfg.nproc = p
	}
	tmp, err := os.MkdirTemp("", "noctg-benchmark-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	cfg.tmp = tmp

	var states []*wstate
	for _, w := range allWorkloads(cfg) {
		if len(o.workloads) == 0 || slices.Contains(o.workloads, w.name()) {
			states = append(states, &wstate{w: w, probeIters: cfg.sz.probeIters, e2e: metricSet{}, layer: metricSet{}, spanS: map[string][]float64{}})
		}
	}
	if len(states) == 0 {
		return nil, fmt.Errorf("no workload named %q", strings.Join(o.workloads, ","))
	}

	// Repeats interleave round-robin over the workloads — and, when tracing,
	// untraced with traced repeats — so a noisy minute on a shared host hits
	// all of them and cancels out of trace.overhead_pct.
	passes := []*tracer{nil}
	var tr *tracer
	if o.trace {
		tr = newTracer()
		passes = append(passes, tr)
	}
	for ran := true; ran; {
		ran = false
		for _, st := range states {
			for p, t := range passes {
				if st.wants(o, p) {
					ran = true
					st.repeat(t, p)
					fmt.Fprintf(o.log, "# %s pass %d repeat %d done\n", st.w.name(), p, st.reps[p])
				}
			}
		}
	}

	var aux unitAux
	units := metricSet{}
	if o.trace {
		if aux, err = runUnits(cfg, units); err != nil {
			return nil, fmt.Errorf("unit drivers: %w", err)
		}
	}

	doc := &document{
		Schema: schemaName, Short: o.short, Traced: o.trace, Seed: o.seed,
		Seconds: o.seconds,
		Nproc:   runtime.NumCPU(), Gomaxprocs: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: gitHead(),
	}
	if o.seconds <= 0 {
		doc.Repeats = o.repeats
	}
	for _, st := range states {
		doc.Workloads = append(doc.Workloads, st.finish(o, tr, units, aux))
		st.w.cleanup()
	}
	if tr != nil {
		doc.Spans = tr.spans
	}
	return doc, nil
}

// finish runs the workload's layer extras and verify, and assembles its
// result.
func (st *wstate) finish(o options, tr *tracer, units metricSet, aux unitAux) workloadResult {
	w := st.w
	res := workloadResult{Name: w.name(), Why: w.why()}
	wallS := median(st.e2e["wall_s"])

	var lc *layerCtx
	if o.trace && st.last != nil {
		tr.workload, tr.repeat = w.name(), -1
		lc = &layerCtx{last: st.last, wallS: wallS, tr: tr, m: st.layer, spanS: st.spanS}
		if err := w.layers(lc); err != nil {
			st.fail("layer extras", err)
		}
		st.record(lc.checks)
	}
	if st.last != nil {
		st.record(w.verify(st.last))
		st.record([]check{checkf("simulated statistics repeat exactly across repeats", st.countsRepeat,
			"count metrics differ between repeats of one seed")})
	}

	share := 1.0
	if st.attempted > 0 {
		share = float64(st.failed) / float64(st.attempted)
	}
	st.e2e.set("failed_share", share)
	res.Attempted, res.Failed, res.FailedChecks = max(st.attempted, 1), st.failed, st.failedChecks
	// The bounded timings are reported at the reference host speed (probe.go);
	// everything derived from wallS above and below is unscaled.
	if speed := median(st.layer["proc.host_speed"]); speed > 0 {
		st.layer["proc.wall_raw_s"] = slices.Clone(st.e2e["wall_s"])
		for i := range st.e2e["wall_s"] {
			st.e2e["wall_s"][i] *= speed
			st.e2e["sim_mcps"][i] /= speed
			st.e2e["setup_s"][i] *= speed
		}
	}
	res.EndToEnd = st.e2e.finish(endToEndDefs)
	if !o.trace {
		return res
	}

	for name, samples := range units {
		st.layer[name] = samples
	}
	if st.last != nil {
		for _, d := range perLayerDefs {
			if v, ok := st.last.counts[d.Name]; ok && d.Kind == kindCount {
				st.layer.set(d.Name, v)
			}
		}
		st.layer.set("sim.cycles", float64(st.last.cycles))
	}
	if s := st.spanS["exp.TranslateAll"]; len(s) > 0 {
		st.layer["core.translate_s"] = s
	}
	if traced := median(st.tracedWalls); traced > 0 && wallS > 0 {
		st.layer.set("trace.overhead_pct", 100*(traced/wallS-1))
	}
	st.layer.set("proc.peak_rss_mb", peakRSSMB())
	res.PerLayer = st.layer.finish(perLayerDefs)
	if lc != nil {
		res.Ledger = buildLedger(w, lc, res.PerLayer, aux, wallS)
	}
	return res
}

// gitHead is `git rev-parse HEAD`, or "unknown" outside a repository.
func gitHead() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB; 0 where
// /proc is absent.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
