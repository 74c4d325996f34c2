package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"time"

	"noctg/internal/core"
	"noctg/internal/exp"
	"noctg/internal/layout"
	"noctg/internal/noc"
	"noctg/internal/ocp"
	"noctg/internal/platform"
	"noctg/internal/prog"
	"noctg/internal/scenario"
	"noctg/internal/stochastic"
	"noctg/internal/sweep"
)

// sizes fixes the amount of work of every workload. The full sizes are the
// ISSUE's, scaled down uniformly so one repeat takes 1–2 s on the 2-core
// seed host and at least five repeats fit the contract's run window; the
// short sizes exist for the self-test only.
type sizes struct {
	paper        exp.Sizes
	paperReplays int

	libraryCount int
	libraryLimit int // 0 = every library scenario

	curveWarmup, curveEpoch uint64
	curveLimit              int // 0 = every curve-able library scenario

	journalSeeds  int
	journalVerify int // leading points re-run without a journal

	meshW, meshH           int
	meshGridW, meshGridH   int // logical master grid; masters = W×H
	meshWarmup, meshCycles uint64
	meshVerify             uint64

	probeIters  int           // size of the host-speed probe (probe.go)
	ratioRounds int           // paired rounds behind every cross-configuration ratio
	unitBatch   time.Duration // target wall time of one unit-driver batch
	unitBatches int
	overheadPts int // Count=1 points behind sweep.point_overhead_us
}

func fullSizes() sizes {
	return sizes{
		paper: exp.DefaultSizes(), paperReplays: 5,
		libraryCount: 150,
		curveWarmup:  500, curveEpoch: 1000,
		journalSeeds: 96, journalVerify: 128,
		meshW: 16, meshH: 16, meshGridW: 12, meshGridH: 8,
		meshWarmup: 5000, meshCycles: 10000, meshVerify: 2500,
		probeIters:  9_000_000,
		ratioRounds: 2, unitBatch: 10 * time.Millisecond, unitBatches: 5, overheadPts: 256,
	}
}

func shortSizes() sizes {
	return sizes{
		paper: exp.Sizes{SPMatrixN: 4, CacheloopIters: 200, MPMatrixN: 4, DESBlocks: 1,
			CacheloopCores: []int{2}, MPMatrixCores: []int{2}, DESCores: []int{3}},
		paperReplays: 2,
		libraryCount: 10, libraryLimit: 3,
		curveWarmup: 100, curveEpoch: 200, curveLimit: 2,
		journalSeeds: 2, journalVerify: 8,
		meshW: 6, meshH: 6, meshGridW: 4, meshGridH: 2,
		meshWarmup: 200, meshCycles: 400, meshVerify: 200,
		probeIters:  100_000,
		ratioRounds: 2, unitBatch: 200 * time.Microsecond, unitBatches: 2, overheadPts: 8,
	}
}

// config is what every workload is built from. The seed is the only input
// to workload generation.
type config struct {
	seed  int64
	sz    sizes
	nproc int
	tmp   string // run-private directory for journals and artifacts
}

// bodyOut is what one timed body produced.
type bodyOut struct {
	cycles uint64 // simulated cycles executed by all engines
	ops    int    // rows, points or levels run
	failed int    // of which failed
	// counts are simulated statistics of the body; they must repeat exactly
	// for one seed on one commit.
	counts map[string]float64
	// derived holds timings the callees report themselves (exp's Wall
	// fields), keyed by per-layer metric name.
	derived map[string]float64
	// endToEnd holds end-to-end metrics only this workload defines
	// (paper_tg_amba's tg_cycle_err_pct).
	endToEnd map[string]float64
	data     any // workload-private results, kept for verify
}

func newBodyOut() *bodyOut {
	return &bodyOut{counts: map[string]float64{}, derived: map[string]float64{}}
}

// check is one verify assertion; a failed check counts against
// failed_share exactly like a failed operation.
type check struct {
	name string
	err  error
}

func checkf(name string, ok bool, format string, args ...any) check {
	if ok {
		return check{name: name}
	}
	return check{name: name, err: fmt.Errorf(format, args...)}
}

// workload is one benchmark workload: an untimed-by-the-body setup that
// regenerates the inputs from the seed, a timed body of fixed work, and an
// untimed verify against the strict-kernel oracle. layers runs only in
// the traced pass and adds the workload's shim shares and cross-config
// ratios to the per-layer set.
type workload interface {
	name() string
	why() string
	setup() error
	body(tr *tracer) (*bodyOut, error)
	verify(out *bodyOut) []check
	layers(lc *layerCtx) error
	cleanup()
}

// layerCtx carries what layers needs from the runs that preceded it and
// collects what it finds.
type layerCtx struct {
	last  *bodyOut  // output of the last untraced body
	wallS float64   // median untraced body wall
	tr    *tracer   // receives the extra passes' spans
	m     metricSet // per-layer samples to add to
	// spanS holds, per span name, each traced repeat's summed duration.
	spanS map[string][]float64

	checks []check // assertions of the pass; they feed failed_share
	// masterTicks and execCycles are the shim pass's counts scaled to one
	// body; ledgerWallS overrides the wall the ledger reconciles against.
	masterTicks, execCycles, ledgerWallS float64
}

func (lc *layerCtx) spanMedian(name string) float64 { return median(lc.spanS[name]) }

func allWorkloads(cfg *config) []workload {
	return []workload{
		&paperTG{cfg: cfg},
		&libraryXPipes{cfg: cfg},
		&curveAdaptive{cfg: cfg},
		&journalAMBA{cfg: cfg},
		&meshSharded{cfg: cfg},
	}
}

// ---------------------------------------------------------------- paper_tg_amba

// paperTG is the paper's flow on AMBA: per Table 2 row one traced strict
// ARM reference run, the trace serialised and translated, then the TG
// programs replayed under the default (event) kernel.
type paperTG struct {
	cfg   *config
	specs []*prog.Spec
	opt   exp.Options
}

type paperRow struct {
	spec        *prog.Spec
	progs       []*core.Program
	armMakespan uint64
	tgMakespans []uint64
	refWall     time.Duration
	tgWalls     []time.Duration
	err         error
}

func (w *paperTG) name() string { return "paper_tg_amba" }
func (w *paperTG) why() string {
	return "the paper's result: cpu/cache/trace/core/amba/sim do all the work, noc/sweep/journal none, so fabric-side NoC work must show no change here"
}

func (w *paperTG) setup() error {
	w.specs = w.cfg.sz.paper.Specs()
	w.opt = exp.DefaultOptions()
	return nil
}

func (w *paperTG) body(tr *tracer) (*bodyOut, error) {
	out := newBodyOut()
	rows := make([]*paperRow, len(w.specs))
	var errSum float64
	for i, spec := range w.specs {
		row := &paperRow{spec: spec}
		rows[i] = row
		out.ops++
		if row.err = w.runRow(tr, row, out); row.err != nil {
			out.failed++
			continue
		}
		arm, tg := float64(row.armMakespan), float64(row.tgMakespans[0])
		errSum += 100 * math.Abs(tg-arm) / arm
	}
	if ok := out.ops - out.failed; ok > 0 {
		out.endToEnd = map[string]float64{"tg_cycle_err_pct": errSum / float64(ok)}
	}
	out.data = rows
	return out, nil
}

func (w *paperTG) runRow(tr *tracer, row *paperRow, out *bodyOut) error {
	spec := row.spec
	end := tr.begin("exp.RunReference", "cpu")
	ref, err := exp.RunReference(spec, w.opt, true)
	if err == nil {
		tr.child("System.Run(arm)", "cpu", ref.Wall)
	}
	end()
	if err != nil {
		return err
	}
	row.armMakespan, row.refWall = ref.Makespan, ref.Wall
	refCycles := ref.Sys.Engine.Cycle()
	out.cycles += refCycles
	out.counts["cpu.ref_cycles"] += float64(refCycles)
	out.derived["cpu.ref_run_s"] += ref.Wall.Seconds()
	for _, mon := range ref.Sys.Monitors {
		out.counts["ocp.transactions"] += float64(mon.Transactions())
	}
	out.counts["amba.busy_cycles"] += float64(ref.Sys.Bus.BusyCycles())

	end = tr.begin("exp.TraceBytes", "trace")
	tb, err := exp.TraceBytes(ref.Traces)
	end()
	if err != nil {
		return err
	}
	out.counts["trace.bytes"] += float64(tb)

	end = tr.begin("exp.TranslateAll", "core")
	progs, _, _, err := exp.TranslateAll(spec, ref.Traces,
		core.DefaultTranslateConfig(exp.PollRangesFor(spec)))
	end()
	if err != nil {
		return err
	}
	row.progs = progs

	for k := 0; k < w.cfg.sz.paperReplays; k++ {
		end = tr.begin("exp.RunTG", "platform")
		tg, err := exp.RunTG(spec, progs, w.opt)
		if err == nil {
			tr.child("System.Run(tg)", "sim", tg.Wall)
		}
		end()
		if err != nil {
			return err
		}
		row.tgMakespans = append(row.tgMakespans, tg.Makespan)
		row.tgWalls = append(row.tgWalls, tg.Wall)
		out.cycles += tg.Sys.Engine.Cycle()
		out.derived["sim.run_s"] += tg.Wall.Seconds()
		for _, m := range tg.Sys.Masters {
			d := m.(*core.Device)
			out.counts["core.tg_insts"] += float64(d.InstRet.Value())
			out.counts["ocp.transactions"] += float64(d.Transactions.Value())
		}
		busy := float64(tg.Sys.Bus.BusyCycles())
		out.counts["amba.busy_cycles"] += busy
		out.counts["amba.busy_cycles.tg"] += busy
	}
	return nil
}

// paperErrCeilingPct is the accuracy envelope the paper claims ("a few
// percent"); the mean TG cycle error staying under it is a verify check,
// so the accuracy half of the claim gates every run.
const paperErrCeilingPct = 5.0

func (w *paperTG) verify(out *bodyOut) []check {
	rows := out.data.([]*paperRow)
	strict := w.opt
	strict.Platform.Kernel = platform.KernelStrict
	var checks []check
	for _, row := range rows {
		name := fmt.Sprintf("%s/%dP strict replay", row.spec.Name, row.spec.Cores)
		if row.err != nil {
			checks = append(checks, check{name: name, err: row.err})
			continue
		}
		tg, err := exp.RunTG(row.spec, row.progs, strict)
		if err != nil {
			checks = append(checks, check{name: name, err: err})
			continue
		}
		same := true
		for _, m := range row.tgMakespans {
			same = same && m == tg.Makespan
		}
		checks = append(checks, checkf(name, same, "strict makespan %d, event replays %v",
			tg.Makespan, row.tgMakespans))
	}
	errPct := out.endToEnd["tg_cycle_err_pct"]
	checks = append(checks, checkf("mean TG cycle error within the paper's envelope",
		errPct <= paperErrCeilingPct, "mean error %.4f%% > %.1f%%", errPct, paperErrCeilingPct))
	return checks
}

func (w *paperTG) cleanup() {}

// ---------------------------------------------------------------- library_xpipes

// libraryXPipes is the stock scenario grid users run: every library
// scenario at two seeds through the sweep runner on one worker.
type libraryXPipes struct {
	cfg    *config
	points []sweep.Point
}

func (w *libraryXPipes) name() string { return "library_xpipes" }
func (w *libraryXPipes) why() string {
	return "the stock grid users run: noc + stochastic + ocp.Monitor dominate on a small, busy 4x3 mesh/torus at sparse and near-saturation load"
}

func librarySpecs(cfg *config) []scenario.Spec {
	specs := scenario.Library()
	if n := cfg.sz.libraryLimit; n > 0 {
		specs = specs[:n]
	}
	for i := range specs {
		specs[i].Count = cfg.sz.libraryCount
		specs[i].Seeds = []int64{cfg.seed, cfg.seed + 1}
	}
	return specs
}

func (w *libraryXPipes) setup() error {
	pts, err := scenario.Points(librarySpecs(w.cfg))
	w.points = pts
	return err
}

func (w *libraryXPipes) body(tr *tracer) (*bodyOut, error) {
	end := tr.begin("sweep.Runner.Run", "sweep")
	res, err := sweep.Runner{Workers: 1}.Run(w.points)
	end()
	if err != nil {
		return nil, err
	}
	out := newBodyOut()
	tallyResults(out, res)
	out.data = res
	return out, nil
}

// tallyResults folds a sweep result set into the body's operation count,
// simulated-cycle total and simulated statistics.
func tallyResults(out *bodyOut, res []sweep.Result) {
	for _, r := range res {
		out.ops++
		if r.Err != "" {
			out.failed++
		}
		out.cycles += r.Engine.Cycles
		out.counts["ocp.transactions"] += float64(r.Transactions)
		out.counts["noc.flits_routed"] += float64(r.FlitsRouted)
		out.counts["amba.busy_cycles"] += float64(r.BusBusyCycles)
	}
	out.counts["sweep.points"] += float64(len(res))
}

// seedHalf returns the points (and, in step, the results) of one seed.
func seedHalf(points []sweep.Point, res []sweep.Result, seed int64) ([]sweep.Point, []sweep.Result) {
	var ps []sweep.Point
	var rs []sweep.Result
	for i, p := range points {
		if p.Seed == seed {
			ps = append(ps, p)
			rs = append(rs, res[i])
		}
	}
	return ps, rs
}

func resultsJSON(res []sweep.Result) []byte {
	var buf bytes.Buffer
	if err := sweep.WriteJSON(&buf, res); err != nil {
		return []byte(err.Error())
	}
	return buf.Bytes()
}

func (w *libraryXPipes) verify(out *bodyOut) []check {
	res := out.data.([]sweep.Result)
	pts, want := seedHalf(w.points, res, w.cfg.seed)
	got, err := sweep.Runner{Workers: 1, Kernel: platform.KernelStrict}.Run(pts)
	if err != nil {
		return []check{{name: "strict re-run of the seed half", err: err}}
	}
	return []check{checkf("strict re-run of the seed half is byte-identical",
		bytes.Equal(resultsJSON(got), resultsJSON(want)),
		"WriteJSON of %d strict points differs from the event run", len(pts))}
}

func (w *libraryXPipes) cleanup() {}

// ---------------------------------------------------------------- curve_adaptive

// curveAdaptive runs the library's load-latency curves in adaptive mode:
// open-loop across the whole load ladder under phased, CI-adaptive
// measurement, with the analytic estimator planning which levels simulate.
// The campaign keeps the library's own seed: which levels the planner
// simulates and how many epochs each needs swing the fixed work by ±4 %
// from seed to seed, wider than the alloc_mb bound, so the benchmark seed
// does not reach this workload (nor paper_tg_amba, whose programs are
// fixed).
type curveAdaptive struct {
	cfg   *config
	specs []sweep.CurveSpec
}

func (w *curveAdaptive) name() string { return "curve_adaptive" }
func (w *curveAdaptive) why() string {
	return "open-loop noc use across the whole load ladder; the only workload where sweep curve planning, analytic and sim.Registry phase boundaries work"
}

func (w *curveAdaptive) setup() error {
	specs := scenario.Library()
	for i := range specs {
		specs[i].CurveMode = sweep.CurveModeAdaptive
		specs[i].Warmup = w.cfg.sz.curveWarmup
		specs[i].EpochCycles = w.cfg.sz.curveEpoch
		specs[i].CITarget = scenario.DefaultCurveMeasure.CITarget
	}
	cs, err := scenario.Curves(specs)
	if n := w.cfg.sz.curveLimit; n > 0 && len(cs) > n {
		cs = cs[:n]
	}
	w.specs = cs
	return err
}

func (w *curveAdaptive) body(tr *tracer) (*bodyOut, error) {
	end := tr.begin("sweep.Runner.RunCurves", "sweep")
	curves, err := sweep.Runner{Workers: 1}.RunCurves(w.specs)
	end()
	if err != nil {
		return nil, err
	}
	end = tr.begin("sweep.WriteCurvesJSON", "sweep")
	err = sweep.WriteCurvesJSON(io.Discard, curves)
	end()
	if err != nil {
		return nil, err
	}
	out := newBodyOut()
	for i, c := range curves {
		m := w.specs[i].Measure
		for _, p := range c.Points {
			out.counts["sweep.curve_levels_total"]++
			if p.Estimated {
				continue
			}
			out.counts["sweep.curve_levels_simulated"]++
			out.ops++
			if p.Err != "" {
				out.failed++
				continue
			}
			out.cycles += m.WarmupCycles + uint64(p.Epochs)*m.EpochCycles
		}
	}
	out.data = curves
	return out, nil
}

func curvesJSON(curves []sweep.Curve) []byte {
	var buf bytes.Buffer
	if err := sweep.WriteCurvesJSON(&buf, curves); err != nil {
		return []byte(err.Error())
	}
	return buf.Bytes()
}

// verify re-runs two curves — the first ×pipes one and the AMBA one —
// under the strict kernel; each curve's plan depends only on its own
// results, so a subset reproduces the campaign's bytes.
func (w *curveAdaptive) verify(out *bodyOut) []check {
	curves := out.data.([]sweep.Curve)
	pick := []int{0}
	for i, cs := range w.specs {
		if cs.Fabric.Interconnect == sweep.FabricAMBA {
			pick = append(pick, i)
			break
		}
	}
	if len(pick) == 1 && len(w.specs) > 1 {
		pick = append(pick, len(w.specs)-1)
	}
	var specs []sweep.CurveSpec
	var want []sweep.Curve
	for _, i := range pick {
		specs = append(specs, w.specs[i])
		want = append(want, curves[i])
	}
	got, err := sweep.Runner{Workers: 1, Kernel: platform.KernelStrict}.RunCurves(specs)
	if err != nil {
		return []check{{name: "strict re-run of two curves", err: err}}
	}
	return []check{checkf("strict re-run of two curves is byte-identical",
		bytes.Equal(curvesJSON(got), curvesJSON(want)),
		"WriteCurvesJSON of curves %v differs under the strict kernel", pick)}
}

func (w *curveAdaptive) layers(*layerCtx) error { return nil }
func (w *curveAdaptive) cleanup()               {}

// ---------------------------------------------------------------- journal_amba

// journalAMBA is the write path: thousands of millisecond points on the
// two AMBA fabrics of the default grid under the write-ahead journal, then
// the artifact pair. Simulation is cheap, so per-point constants dominate.
type journalAMBA struct {
	cfg    *config
	points []sweep.Point
	dir    string
}

func (w *journalAMBA) name() string { return "journal_amba" }
func (w *journalAMBA) why() string {
	return "simulation is cheap, so per-point constants (platform build, program cache, journal append+fsync, JSON/CSV render) dominate: the write path beside the others' compute path"
}

func (w *journalAMBA) journalPath() string { return filepath.Join(w.dir, "sweep.journal") }

func (w *journalAMBA) setup() error {
	g := sweep.DefaultGrid()
	var amba []sweep.Fabric
	for _, f := range g.Fabrics {
		if f.Interconnect == sweep.FabricAMBA {
			amba = append(amba, f)
		}
	}
	g.Fabrics = amba
	g.Seeds = nil
	for i := 0; i < w.cfg.sz.journalSeeds; i++ {
		g.Seeds = append(g.Seeds, w.cfg.seed+int64(i))
	}
	if err := g.Validate(); err != nil {
		return err
	}
	w.points = g.Expand()
	dir, err := os.MkdirTemp(w.cfg.tmp, "journal-")
	w.dir = dir
	return err
}

func (w *journalAMBA) body(tr *tracer) (*bodyOut, error) {
	end := tr.begin("sweep.Runner.RunJournaled", "journal")
	res, _, err := sweep.Runner{Workers: 1}.RunJournaled(w.points, sweep.JournalConfig{Path: w.journalPath()})
	end()
	if err != nil {
		return nil, err
	}
	end = tr.begin("sweep.WriteArtifacts", "sweep")
	err = sweep.WriteArtifacts(filepath.Join(w.dir, "results"), res)
	end()
	if err != nil {
		return nil, err
	}
	out := newBodyOut()
	tallyResults(out, res)
	if fi, err := os.Stat(w.journalPath()); err == nil {
		out.counts["journal.bytes"] = float64(fi.Size())
	}
	out.data = res
	return out, nil
}

func (w *journalAMBA) verify(out *bodyOut) []check {
	res := out.data.([]sweep.Result)
	n := min(w.cfg.sz.journalVerify, len(w.points))
	var checks []check
	plain, err := sweep.Runner{Workers: 1}.Run(w.points[:n])
	if err != nil {
		checks = append(checks, check{name: "plain run of the leading points", err: err})
	} else {
		checks = append(checks, checkf("journaled results equal a plain run",
			bytes.Equal(resultsJSON(plain), resultsJSON(res[:n])),
			"first %d journaled results differ from Runner.Run", n))
	}
	resumed, status, err := sweep.Runner{Workers: 1}.Resume(w.points, w.journalPath())
	if err != nil {
		return append(checks, check{name: "resume of the finished journal", err: err})
	}
	return append(checks,
		checkf("resume returns identical bytes", bytes.Equal(resultsJSON(resumed), resultsJSON(res)),
			"resumed results differ from the journaled run"),
		checkf("resume simulates nothing", status.Ran == 0 && status.Resumed == len(w.points),
			"resume ran %d points and restored %d of %d", status.Ran, status.Resumed, len(w.points)))
}

func (w *journalAMBA) cleanup() {
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}

// ---------------------------------------------------------------- mesh16_sharded

// meshSharded is the BenchmarkShardScaling platform: a large, mostly empty
// mesh of stochastic hotspot read masters, built through platform.Build
// with two shards and rebuilt every repeat.
type meshSharded struct {
	cfg    *config
	sys    *platform.System
	before map[string]uint64
}

// shards is the body's shard (and thread) count: two, never more than nproc.
func (w *meshSharded) shards() int  { return min(2, w.cfg.nproc) }
func (w *meshSharded) name() string { return "mesh16_sharded" }
func (w *meshSharded) why() string {
	return "a large, mostly-empty fabric: noc router scanning and shard barriers are about all of the time, master and orchestration layers about none; the opposite regime from library_xpipes"
}

// meshFactory is the hotspot read traffic of BenchmarkShardScaling: a
// weighted slice of every master's reads converges on one private memory,
// the rest spreads uniformly, and every transaction crosses the shard cut.
func meshFactory(cfg *config) func(*platform.System, int, ocp.MasterPort) sleeperMaster {
	cores := cfg.sz.meshGridW * cfg.sz.meshGridH
	dests := make([]ocp.AddrRange, cores)
	for d := range dests {
		dests[d] = layout.PrivRange(d)
	}
	weights := make([]float64, cores)
	weights[cores/2] = 0.03
	scfg := stochastic.Config{
		Dist: stochastic.Poisson, MeanGap: 8, ReadFraction: 1, Count: 1 << 30, Seed: cfg.seed,
		Spatial: &stochastic.Spatial{Pattern: stochastic.Hotspot, W: cfg.sz.meshGridW, H: cfg.sz.meshGridH,
			Dests: dests, HotspotWeights: weights},
	}
	return func(_ *platform.System, id int, port ocp.MasterPort) sleeperMaster {
		return stochastic.New(id, scfg, port)
	}
}

func meshConfig(cfg *config, shards int) platform.Config {
	return platform.Config{
		Cores:        cfg.sz.meshGridW * cfg.sz.meshGridH,
		Interconnect: platform.XPipes,
		NoC:          noc.Config{Width: cfg.sz.meshW, Height: cfg.sz.meshH},
		Kernel:       platform.KernelEvent,
		Shards:       shards,
	}
}

func buildMesh(cfg *config, shards int) (*platform.System, error) {
	f := meshFactory(cfg)
	return platform.Build(meshConfig(cfg, shards), func(s *platform.System, id int, port ocp.MasterPort) platform.Master {
		return f(s, id, port)
	})
}

// advance runs a mesh system for exactly n cycles whatever its shard
// setting: the sharded runner's Advance, or the single engine's Run with a
// predicate that never holds.
func advance(sys *platform.System, n uint64) error {
	if sys.Sharded != nil {
		got, err := sys.Sharded.Advance(n)
		if err == nil && got != n {
			err = fmt.Errorf("advanced %d of %d cycles", got, n)
		}
		return err
	}
	got, _ := sys.Engine.RunEvery(n, 32, func() bool { return false })
	if got != n {
		return fmt.Errorf("advanced %d of %d cycles", got, n)
	}
	return nil
}

func counters(sys *platform.System) map[string]uint64 {
	sys.Stats.Sync(sys.Engine.Cycle())
	return sys.Stats.CounterSnapshot()
}

func (w *meshSharded) setup() error {
	sys, err := buildMesh(w.cfg, w.shards())
	if err != nil {
		return err
	}
	if err := advance(sys, w.cfg.sz.meshWarmup); err != nil {
		return err
	}
	w.sys, w.before = sys, counters(sys)
	return nil
}

func (w *meshSharded) body(tr *tracer) (*bodyOut, error) {
	end := tr.begin("shard.Runner.Advance", "shard")
	start := time.Now()
	err := advance(w.sys, w.cfg.sz.meshCycles)
	runS := time.Since(start).Seconds()
	end()
	out := newBodyOut()
	out.derived["sim.run_s"] = runS
	out.ops = 1
	if err != nil {
		out.failed = 1
		out.data = err
		return out, nil
	}
	out.cycles = w.cfg.sz.meshCycles
	for name, v := range counters(w.sys) {
		d := float64(v - w.before[name])
		switch {
		case name == "noc/flits_routed":
			out.counts["noc.flits_routed"] += d
		case strings.HasPrefix(name, "master") && strings.HasSuffix(name, "/transactions") && strings.Count(name, "/") == 1:
			out.counts["ocp.transactions"] += d
		}
	}
	return out, nil
}

// verify builds fresh 1- and 2-shard systems and requires equal counter
// snapshots: the sharded determinism class is the oracle here, as no
// strict single-engine run shares its flow-control discipline.
func (w *meshSharded) verify(out *bodyOut) []check {
	var checks []check
	if err, ok := out.data.(error); ok {
		checks = append(checks, check{name: "body advance", err: err})
	}
	var snaps [2]map[string]uint64
	for i, shards := range []int{1, 2} {
		sys, err := buildMesh(w.cfg, shards)
		if err == nil {
			err = advance(sys, w.cfg.sz.meshVerify)
		}
		if err != nil {
			return append(checks, check{name: fmt.Sprintf("%d-shard verify run", shards), err: err})
		}
		snaps[i] = counters(sys)
	}
	return append(checks, checkf("1- and 2-shard counter snapshots agree",
		reflect.DeepEqual(snaps[0], snaps[1]), "stats counters differ between 1 and 2 shards"))
}

func (w *meshSharded) cleanup() { w.sys, w.before = nil, nil }
