// Benchmarks regenerating every table and figure of the paper's evaluation
// (see DESIGN.md §4 for the experiment index and EXPERIMENTS.md for the
// recorded results):
//
//	BenchmarkTable2*            — Table 2: ARM vs TG simulation speed per
//	                              benchmark and core count; the Gain column
//	                              is the ratio of the matching ARM and TG
//	                              benchmark times.
//	BenchmarkFig2a*             — Figure 2(a): private-slave transaction
//	                              pattern micro-benchmark.
//	BenchmarkFig2b*             — Figure 2(b): two-master semaphore
//	                              contention with reactive TGs.
//	BenchmarkFig3Translation    — Figure 3: trace→TG-program translation
//	                              throughput.
//	BenchmarkTraceOverhead*     — §6: trace-collection and translation cost.
//	BenchmarkCrossInterconnect* — §6: the same TG programs on AMBA/×pipes.
//	BenchmarkAblation*          — baseline-fidelity and design-choice
//	                              ablations.
package noctg_test

import (
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"noctg"

	"noctg/internal/amba"
	"noctg/internal/core"
	"noctg/internal/exp"
	"noctg/internal/noc"
	"noctg/internal/ocp"
	"noctg/internal/platform"
	"noctg/internal/prog"
	"noctg/internal/sim"
	"noctg/internal/simtest"
	"noctg/internal/stochastic"
	"noctg/internal/sweep"
)

// benchSizes keeps the Table 2 sweep fast enough for -bench=. runs while
// staying in the paper's contention regimes.
const (
	benchSPMatrixN  = 16
	benchCacheIters = 10_000
	benchMPMatrixN  = 12
	benchDESBlocks  = 8
	benchMaxOverrun = 4 // spec.MaxCycles multiplier safety
)

func benchARM(b *testing.B, spec *prog.Spec) {
	b.Helper()
	progs, err := spec.Assemble()
	if err != nil {
		b.Fatal(err)
	}
	opt := exp.DefaultOptions()
	var makespan uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := opt.Platform
		cfg.Cores = spec.Cores
		sys, err := platform.BuildARM(cfg, progs, opt.ICache, opt.DCache)
		if err != nil {
			b.Fatal(err)
		}
		makespan, err = sys.Run(spec.MaxCycles * benchMaxOverrun)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportSimSpeed(b, makespan)
}

// benchTG replays a translated benchmark on the given kernel. The
// BenchmarkTable2*TG names pin the strict kernel so their Msimcycles/s stay
// comparable across PRs; the *TGSkip variants measure the idle-skipping
// kernel against them.
func benchTG(b *testing.B, spec *prog.Spec, kernel platform.KernelMode) {
	b.Helper()
	ref, err := exp.RunReference(spec, exp.DefaultOptions(), true)
	if err != nil {
		b.Fatal(err)
	}
	progs, _, _, err := exp.TranslateAll(spec, ref.Traces,
		core.DefaultTranslateConfig(exp.PollRangesFor(spec)))
	if err != nil {
		b.Fatal(err)
	}
	var makespan uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := exp.DefaultOptions().Platform
		cfg.Cores = spec.Cores
		cfg.Kernel = kernel
		sys, err := platform.BuildTG(cfg, progs)
		if err != nil {
			b.Fatal(err)
		}
		makespan, err = sys.Run(spec.MaxCycles * benchMaxOverrun)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportSimSpeed(b, makespan)
}

// reportSimSpeed reports the simulated-cycle throughput and the makespan.
func reportSimSpeed(b *testing.B, makespan uint64) {
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(makespan)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Msimcycles/s")
	}
	b.ReportMetric(float64(makespan), "simcycles")
}

// --- Table 2 ---

func BenchmarkTable2SPMatrixARM(b *testing.B) { benchARM(b, prog.SPMatrix(benchSPMatrixN)) }
func BenchmarkTable2SPMatrixTG(b *testing.B) {
	benchTG(b, prog.SPMatrix(benchSPMatrixN), platform.KernelStrict)
}
func BenchmarkTable2SPMatrixTGSkip(b *testing.B) {
	benchTG(b, prog.SPMatrix(benchSPMatrixN), platform.KernelSkip)
}

func BenchmarkTable2CacheloopARM(b *testing.B) {
	for _, p := range []int{2, 4, 8, 12} {
		b.Run(coresName(p), func(b *testing.B) { benchARM(b, prog.Cacheloop(p, benchCacheIters)) })
	}
}

func BenchmarkTable2CacheloopTG(b *testing.B) {
	for _, p := range []int{2, 4, 8, 12} {
		b.Run(coresName(p), func(b *testing.B) {
			benchTG(b, prog.Cacheloop(p, benchCacheIters), platform.KernelStrict)
		})
	}
}

func BenchmarkTable2CacheloopTGSkip(b *testing.B) {
	for _, p := range []int{2, 4, 8, 12} {
		b.Run(coresName(p), func(b *testing.B) {
			benchTG(b, prog.Cacheloop(p, benchCacheIters), platform.KernelSkip)
		})
	}
}

func BenchmarkTable2MPMatrixARM(b *testing.B) {
	for _, p := range []int{2, 4, 8, 12} {
		b.Run(coresName(p), func(b *testing.B) { benchARM(b, prog.MPMatrix(p, benchMPMatrixN)) })
	}
}

func BenchmarkTable2MPMatrixTG(b *testing.B) {
	for _, p := range []int{2, 4, 8, 12} {
		b.Run(coresName(p), func(b *testing.B) {
			benchTG(b, prog.MPMatrix(p, benchMPMatrixN), platform.KernelStrict)
		})
	}
}

func BenchmarkTable2MPMatrixTGSkip(b *testing.B) {
	for _, p := range []int{2, 4, 8, 12} {
		b.Run(coresName(p), func(b *testing.B) {
			benchTG(b, prog.MPMatrix(p, benchMPMatrixN), platform.KernelSkip)
		})
	}
}

func BenchmarkTable2DESARM(b *testing.B) {
	for _, p := range []int{3, 6, 12} {
		b.Run(coresName(p), func(b *testing.B) { benchARM(b, prog.DES(p, benchDESBlocks)) })
	}
}

func BenchmarkTable2DESTG(b *testing.B) {
	for _, p := range []int{3, 6, 12} {
		b.Run(coresName(p), func(b *testing.B) {
			benchTG(b, prog.DES(p, benchDESBlocks), platform.KernelStrict)
		})
	}
}

func BenchmarkTable2DESTGSkip(b *testing.B) {
	for _, p := range []int{3, 6, 12} {
		b.Run(coresName(p), func(b *testing.B) {
			benchTG(b, prog.DES(p, benchDESBlocks), platform.KernelSkip)
		})
	}
}

func coresName(p int) string { return fmt.Sprintf("%dP", p) }

func BenchmarkPipelineARM(b *testing.B) { benchARM(b, prog.Pipeline(4, 16)) }
func BenchmarkPipelineTG(b *testing.B)  { benchTG(b, prog.Pipeline(4, 16), platform.KernelStrict) }
func BenchmarkPipelineTGSkip(b *testing.B) {
	benchTG(b, prog.Pipeline(4, 16), platform.KernelSkip)
}

// --- Figure 2(a): private-slave transaction pattern ---

func BenchmarkFig2aPrivateSlave(b *testing.B) {
	// WR / RD / WR+RD back-to-back against a private slave, as in the
	// figure's timeline.
	steps := []simtest.Step{
		{Gap: 4, Req: ocp.Request{Cmd: ocp.Write, Addr: 0x1000, Burst: 1, Data: []uint32{1}}},
		{Gap: 6, Req: ocp.Request{Cmd: ocp.Read, Addr: 0x1004, Burst: 1}},
		{Gap: 0, Req: ocp.Request{Cmd: ocp.Write, Addr: 0x1008, Burst: 1, Data: []uint32{2}}},
		{Gap: 0, Req: ocp.Request{Cmd: ocp.Read, Addr: 0x1008, Burst: 1}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine(sim.Clock{})
		bus := amba.New(amba.Config{}, e.Cycle)
		ram := newBenchRAM(b, bus)
		_ = ram
		m := simtest.NewMaster(bus.NewMasterPort(), steps)
		e.Add(m)
		e.Add(bus)
		if _, err := e.Run(10_000, func() bool { return m.Done() && bus.Idle() }); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 2(b): semaphore contention with reactive TGs ---

func BenchmarkFig2bSemaphore(b *testing.B) {
	m1, err := noctg.AssembleTGP(`MASTER[0,0]
REGISTER addr 0x09000000
REGISTER data 0x00000001
REGISTER tempreg 0x00000001
BEGIN
Semchk0:
	Read(addr)
	If rdreg != tempreg then Semchk0
	Idle(100)
	Write(addr, data)
	Halt
END`)
	if err != nil {
		b.Fatal(err)
	}
	m2, err := noctg.AssembleTGP(`MASTER[1,0]
REGISTER addr 0x09000000
REGISTER tempreg 0x00000001
BEGIN
	Idle(10)
Semchk0:
	Read(addr)
	Idle(6)
	If rdreg != tempreg then Semchk0
	Halt
END`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := platform.BuildTG(platform.Config{Cores: 2}, []*core.Program{m1, m2})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Run(100_000); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 3: translation throughput ---

func BenchmarkFig3Translation(b *testing.B) {
	spec := prog.MPMatrix(4, benchMPMatrixN)
	ref, err := exp.RunReference(spec, exp.DefaultOptions(), true)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultTranslateConfig(exp.PollRangesFor(spec))
	var events int
	for _, tr := range ref.Traces {
		events += len(tr.Events)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tr := range ref.Traces {
			if _, _, err := core.Translate(tr, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// --- §6: trace collection overhead ---

func BenchmarkTraceOverheadPlain(b *testing.B) {
	spec := prog.MPMatrix(4, benchMPMatrixN)
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunReference(spec, exp.DefaultOptions(), false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceOverheadTraced(b *testing.B) {
	spec := prog.MPMatrix(4, benchMPMatrixN)
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunReference(spec, exp.DefaultOptions(), true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceOverheadSerialize(b *testing.B) {
	spec := prog.MPMatrix(4, benchMPMatrixN)
	ref, err := exp.RunReference(spec, exp.DefaultOptions(), true)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tr := range ref.Traces {
			if err := tr.Write(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- §6: cross-interconnect replay ---

func BenchmarkCrossInterconnectTGOnAMBA(b *testing.B) {
	benchTGOnFabric(b, platform.AMBA, platform.KernelStrict)
}

func BenchmarkCrossInterconnectTGOnXPipes(b *testing.B) {
	benchTGOnFabric(b, platform.XPipes, platform.KernelStrict)
}

func BenchmarkCrossInterconnectTGOnAMBASkip(b *testing.B) {
	benchTGOnFabric(b, platform.AMBA, platform.KernelSkip)
}

func BenchmarkCrossInterconnectTGOnXPipesSkip(b *testing.B) {
	benchTGOnFabric(b, platform.XPipes, platform.KernelSkip)
}

func benchTGOnFabric(b *testing.B, ic platform.Interconnect, kernel platform.KernelMode) {
	b.Helper()
	spec := prog.MPMatrix(4, benchMPMatrixN)
	ref, err := exp.RunReference(spec, exp.DefaultOptions(), true)
	if err != nil {
		b.Fatal(err)
	}
	progs, _, _, err := exp.TranslateAll(spec, ref.Traces,
		core.DefaultTranslateConfig(exp.PollRangesFor(spec)))
	if err != nil {
		b.Fatal(err)
	}
	var makespan uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := platform.Config{Cores: spec.Cores, Interconnect: ic, Kernel: kernel}
		sys, err := platform.BuildTG(cfg, progs)
		if err != nil {
			b.Fatal(err)
		}
		makespan, err = sys.Run(spec.MaxCycles * benchMaxOverrun)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportSimSpeed(b, makespan)
}

// --- Ablations ---

func BenchmarkAblationGeneratorFidelity(b *testing.B) {
	spec := prog.MPMatrix(2, benchMPMatrixN)
	source := exp.DefaultOptions()
	target := exp.DefaultOptions()
	target.Platform.Interconnect = platform.XPipes
	b.Run("reactive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rows, err := exp.AblationGenerators(spec, source, target)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(rows[0].ErrorPct, "errpct")
		}
	})
}

func BenchmarkAblationArbitration(b *testing.B) {
	spec := prog.MPMatrix(4, benchMPMatrixN)
	for _, pol := range []amba.Policy{amba.RoundRobin, amba.FixedPriority, amba.TDMA} {
		b.Run(pol.String(), func(b *testing.B) {
			opt := exp.DefaultOptions()
			opt.Platform.Bus.Arbitration = pol
			var makespan uint64
			for i := 0; i < b.N; i++ {
				ref, err := exp.RunReference(spec, opt, false)
				if err != nil {
					b.Fatal(err)
				}
				makespan = ref.Makespan
			}
			b.ReportMetric(float64(makespan), "simcycles")
		})
	}
}

func BenchmarkAblationLineSize(b *testing.B) {
	spec := prog.SPMatrix(benchSPMatrixN)
	for _, words := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("%dw", words), func(b *testing.B) {
			opt := exp.DefaultOptions()
			opt.ICache.WordsPerLine = words
			opt.DCache.WordsPerLine = words
			var makespan uint64
			for i := 0; i < b.N; i++ {
				ref, err := exp.RunReference(spec, opt, false)
				if err != nil {
					b.Fatal(err)
				}
				makespan = ref.Makespan
			}
			b.ReportMetric(float64(makespan), "simcycles")
		})
	}
}

func BenchmarkAblationAssociativity(b *testing.B) {
	// Cache associativity's effect on the reference run (DESIGN.md design
	// choice: the paper's caches are unspecified; ours default to
	// direct-mapped).
	spec := prog.SPMatrix(benchSPMatrixN)
	for _, ways := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("%dway", ways), func(b *testing.B) {
			opt := exp.DefaultOptions()
			opt.ICache.Ways = ways
			opt.DCache.Ways = ways
			var makespan uint64
			for i := 0; i < b.N; i++ {
				ref, err := exp.RunReference(spec, opt, false)
				if err != nil {
					b.Fatal(err)
				}
				makespan = ref.Makespan
			}
			b.ReportMetric(float64(makespan), "simcycles")
		})
	}
}

func BenchmarkAblationPollGapModel(b *testing.B) {
	// Sensitivity of TG accuracy to the configured poll period: translate
	// with gaps around the measured value and report the cycle error.
	spec := prog.MPMatrix(4, benchMPMatrixN)
	ref, err := exp.RunReference(spec, exp.DefaultOptions(), true)
	if err != nil {
		b.Fatal(err)
	}
	for _, gap := range []uint64{4, 8, 16} {
		b.Run(fmt.Sprintf("%dcyc", gap), func(b *testing.B) {
			cfg := core.DefaultTranslateConfig(nil)
			cfg.PollRanges = []core.PollRange{{Range: noctg.SemRange(), Gap: gap}}
			for _, w := range spec.PollWords {
				cfg.PollRanges = append(cfg.PollRanges,
					core.PollRange{Range: ocp.AddrRange{Base: w, Size: 4}, Gap: gap})
			}
			progs, _, _, err := exp.TranslateAll(spec, ref.Traces, cfg)
			if err != nil {
				b.Fatal(err)
			}
			var errPct float64
			for i := 0; i < b.N; i++ {
				tg, err := exp.RunTG(spec, progs, exp.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				diff := float64(tg.Makespan) - float64(ref.Makespan)
				if diff < 0 {
					diff = -diff
				}
				errPct = 100 * diff / float64(ref.Makespan)
			}
			b.ReportMetric(errPct, "errpct")
		})
	}
}

// --- parallel sweep runner ---

func BenchmarkSweepDefaultGrid(b *testing.B) {
	// The stock 16-configuration grid on one worker vs all host cores —
	// the ratio is the sweep runner's parallel speedup.
	grid := sweep.DefaultGrid()
	points := grid.Expand()
	for _, workers := range []int{1, 0} {
		name := "allcores"
		if workers == 1 {
			name = "1worker"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := sweep.Runner{Workers: workers}.Run(points)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range res {
					if r.Err != "" {
						b.Fatalf("point %d: %s", r.ID, r.Err)
					}
				}
			}
			b.ReportMetric(float64(len(points))*float64(b.N)/b.Elapsed().Seconds(), "points/s")
		})
	}
}

// BenchmarkJournaledSweep measures the write-ahead journal's cost over the
// identical plain sweep. The cost is a constant per point — two record
// appends and one fsync, nothing per simulated cycle (the kernel alloc
// guards, TestZeroAlloc and friends, pin the hot path unchanged at
// 0 allocs/op) — so the journaled/plain delta here IS that constant:
// deliberately tiny points make it visible and statistically stable, while
// on a real campaign point (seconds of simulation) the same constant
// amortizes below 1%. The CI smoke gate keeps the delta from regressing.
func BenchmarkJournaledSweep(b *testing.B) {
	grid := sweep.Grid{
		Workloads: []sweep.Workload{{
			Kind: sweep.KindStochastic, Dist: "uniform", Cores: 4,
			Pattern: "uniform", PatternW: 2, PatternH: 2,
			MeanGap: 6, Count: 2000,
		}},
		Fabrics: []sweep.Fabric{{Interconnect: sweep.FabricAMBA}},
		Seeds:   []int64{1, 2},
	}
	points := grid.Expand()
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := sweep.Runner{Workers: 1}.Run(points)
			if err != nil {
				b.Fatal(err)
			}
			if res[0].Err != "" {
				b.Fatal(res[0].Err)
			}
		}
		b.ReportMetric(float64(len(points))*float64(b.N)/b.Elapsed().Seconds(), "points/s")
	})
	b.Run("journaled", func(b *testing.B) {
		dir := b.TempDir()
		for i := 0; i < b.N; i++ {
			path := filepath.Join(dir, fmt.Sprintf("sweep-%d.journal", i))
			res, _, err := sweep.Runner{Workers: 1}.RunJournaled(points, sweep.JournalConfig{Path: path})
			if err != nil {
				b.Fatal(err)
			}
			if res[0].Err != "" {
				b.Fatal(res[0].Err)
			}
		}
		b.ReportMetric(float64(len(points))*float64(b.N)/b.Elapsed().Seconds(), "points/s")
	})
}

// --- phased measurement ---

// BenchmarkPhasedMeasure drives the phased warmup/epoch methodology on an
// open-loop stochastic platform under each kernel: per-epoch registry
// sync/snapshot/reset at forced boundary wake points plus the metric hot
// paths (counters, latency histograms) in steady state. simcycles is
// deterministic, so the CI smoke gate byte-compares it.
func BenchmarkPhasedMeasure(b *testing.B) {
	point := sweep.Point{
		Workload: sweep.Workload{
			Kind: sweep.KindStochastic, Dist: "poisson", Cores: 4,
			Pattern: "uniform", PatternW: 2, PatternH: 2,
			MeanGap: 6, Count: 1 << 30,
		},
		Fabric:        sweep.Fabric{Interconnect: sweep.FabricXPipes, MeshWidth: 4, MeshHeight: 3},
		ClockPeriodNS: 5,
		Seed:          1,
		Measure:       &sweep.Measure{WarmupCycles: 500, EpochCycles: 1000, Epochs: 4},
	}
	for _, kernel := range []platform.KernelMode{platform.KernelStrict, platform.KernelSkip, platform.KernelEvent} {
		b.Run(kernel.String(), func(b *testing.B) {
			var cycles uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := sweep.Runner{Workers: 1, Kernel: kernel}.Run([]sweep.Point{point})
				if err != nil {
					b.Fatal(err)
				}
				if res[0].Err != "" {
					b.Fatal(res[0].Err)
				}
				if res[0].Phases == nil || len(res[0].Phases.Epochs) != 4 {
					b.Fatalf("phases = %+v", res[0].Phases)
				}
				cycles = res[0].Engine.Cycles
			}
			b.StopTimer()
			b.ReportMetric(float64(cycles), "simcycles")
			b.ReportMetric(float64(cycles)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Msimcycles/s")
		})
	}
}

// --- kernel micro-benchmarks ---

func BenchmarkEngineTick(b *testing.B) {
	e := sim.NewEngine(sim.Clock{})
	n := 0
	for i := 0; i < 16; i++ {
		e.Add(sim.DeviceFunc(func(uint64) { n++ }))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkEngineSkipIdle measures the skip kernel against strict ticking
// on the workload it targets: TGs sleeping through deep Idle gaps over a
// quiescent bus. The strict/skip Msimcycles/s ratio is the kernel speedup.
func BenchmarkEngineSkipIdle(b *testing.B) {
	src := "MASTER[0,0]\nBEGIN\nstart:\nIdle(100000)\nJump(start)\nIdle(100000)\nHalt\nEND"
	for _, kernel := range []sim.Kernel{sim.KernelStrict, sim.KernelSkip, sim.KernelEvent} {
		b.Run(kernel.String(), func(b *testing.B) {
			const span = 1_000_000 // simulated cycles per iteration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := sim.NewEngine(sim.Clock{})
				e.SetKernel(kernel)
				bus := amba.New(amba.Config{}, e.Cycle)
				newBenchRAM(b, bus)
				for c := 0; c < 2; c++ {
					p, err := core.Assemble(src)
					if err != nil {
						b.Fatal(err)
					}
					d, err := core.NewDevice(p, bus.NewMasterPort())
					if err != nil {
						b.Fatal(err)
					}
					e.Add(d)
				}
				e.Add(bus)
				if _, err := e.Run(span, func() bool { return false }); err == nil {
					b.Fatal("idle loop should exhaust the cycle budget")
				}
			}
			b.StopTimer()
			reportSimSpeed(b, span)
		})
	}
}

func BenchmarkTGDeviceIdleTick(b *testing.B) {
	p, err := core.Assemble("MASTER[0,0]\nBEGIN\nstart:\nIdle(1000000)\nJump(start)\nEND")
	if err != nil {
		b.Fatal(err)
	}
	d, err := core.NewDevice(p, idlePort{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Tick(uint64(i))
	}
}

// newTransactionSystem builds the 2-TG platform the transaction-path
// benchmark and the zero-alloc guard tests drive: an endless loop of
// single-word writes, blocking reads and bursts, so every hot path of the
// fabric is exercised. cfg picks the fabric and anything else but the core
// count.
func newTransactionSystem(tb testing.TB, cfg platform.Config) *platform.System {
	tb.Helper()
	src := `MASTER[0,0]
REGISTER addr 0x08000000
REGISTER data 42
BEGIN
start:
	Write(addr, data)
	Read(addr)
	BurstWrite(addr, data, 4)
	BurstRead(addr, 4)
	Jump(start)
END`
	progs := make([]*core.Program, 2)
	for i := range progs {
		p, err := core.Assemble(src)
		if err != nil {
			tb.Fatal(err)
		}
		progs[i] = p
	}
	cfg.Cores = len(progs)
	sys, err := platform.BuildTG(cfg, progs)
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

// BenchmarkTransactionPath drives the full master→fabric→slave transaction
// loop and reports allocs/op: the steady-state hot path must not allocate
// (TestZeroAllocTransactionPath enforces this precisely).
func BenchmarkTransactionPath(b *testing.B) {
	for _, ic := range []platform.Interconnect{platform.AMBA, platform.XPipes} {
		b.Run(ic.String(), func(b *testing.B) {
			sys := newTransactionSystem(b, platform.Config{Interconnect: ic})
			// Warm the reusable buffers and pools before measuring.
			sys.Engine.RunFor(4096)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.Engine.Step()
			}
		})
	}
}

// --- event kernel: mixed-load benchmarks ---

// mixedLoadBusy builds the saturated master of the mixed-load benchmarks: a
// reactive TG spinning on its branch condition — one instruction retired
// every cycle, the way a translated polling loop busy-waits — with a shared
// memory write every 31 cycles. It is never idle for even one cycle, so
// whole-cycle skipping is impossible for the entire run; the event kernel
// ticks exactly this master (plus the bus around each write) while the 15
// sleepers cost nothing.
func mixedLoadBusy() string {
	var src strings.Builder
	src.WriteString("MASTER[0,0]\nREGISTER addr 0x08000000\nREGISTER data 42\nREGISTER zero 0\nREGISTER one 1\nBEGIN\nstart:\n")
	for i := 0; i < 30; i++ {
		src.WriteString("\tIf zero == one then start\n")
	}
	src.WriteString("\tWrite(addr, data)\n\tJump(start)\nEND")
	return src.String()
}

// mixedLoadBusyDense is the saturated master with back-to-back traffic: an
// endless stream of single-word writes and blocking reads, so the bus is
// granted back-to-back and every stall horizon is shorter than the nap
// threshold — the master and the bus stay awake every cycle and the
// transaction machinery itself bounds the speedup.
const mixedLoadBusyDense = `MASTER[0,0]
REGISTER addr 0x08000000
REGISTER data 42
BEGIN
start:
	Write(addr, data)
	Read(addr)
	Jump(start)
END`

// mixedLoadBusyBurst saturates the bus with 8-beat bursts instead: each
// transfer occupies the bus beyond the nap threshold, so the blocked master
// and the bus both sleep through the occupancy on their reported horizons.
// Every kernel that honours Sleeper horizons collapses those spans — the
// variant measures how much of the burst case skip recovers and how far
// ahead event stays.
const mixedLoadBusyBurst = `MASTER[0,0]
REGISTER addr 0x08000000
REGISTER data 42
BEGIN
start:
	BurstWrite(addr, data, 8)
	BurstRead(addr, 8)
	Jump(start)
END`

// mixedLoadSystem builds the event kernel's target workload: one saturated
// TG hammering the shared memory plus idleMasters TGs sleeping in deep Idle
// loops, all over one AMBA bus. Under strict and skip ticking the busy
// master forces every device to be ticked every cycle; the event kernel
// ticks only the busy master and the bus.
func mixedLoadSystem(tb testing.TB, kernel platform.KernelMode, busy string, idleMasters int) *platform.System {
	tb.Helper()
	idle := "MASTER[0,0]\nBEGIN\nstart:\nIdle(100000)\nJump(start)\nEND"
	progs := make([]*core.Program, 1+idleMasters)
	for i := range progs {
		src := idle
		if i == 0 {
			src = busy
		}
		p, err := core.Assemble(src)
		if err != nil {
			tb.Fatal(err)
		}
		progs[i] = p
	}
	sys, err := platform.BuildTG(platform.Config{Cores: len(progs), Kernel: kernel}, progs)
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

// stopper is a self-timed Sleeper that ends a benchmark run every span
// cycles without the error-path allocation of a budget exhaust: it fires at
// an absolute deadline, re-arms for the next span, and sleeps in between,
// so it never disturbs the kernels' tick elision.
type stopper struct {
	at, span uint64
	fired    bool
}

func (s *stopper) Tick(c uint64) {
	if c >= s.at {
		s.fired = true
		s.at += s.span
	}
}

func (s *stopper) NextWake(now uint64) uint64 {
	if s.at > now {
		return s.at
	}
	return now
}

// take reports and clears the fired flag (the run's completion predicate).
func (s *stopper) take() bool {
	if s.fired {
		s.fired = false
		return true
	}
	return false
}

// benchMixedLoad measures one kernel on a prepared system, span simulated
// cycles per iteration.
func benchMixedLoad(b *testing.B, sys *platform.System, span uint64) {
	st := &stopper{at: sys.Engine.Cycle() + span, span: span}
	sys.Engine.Add(st)
	// Warm the reusable buffers, pools and kernel schedule before measuring.
	if _, err := sys.Engine.RunEvery(4*span, 32, st.take); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Engine.RunEvery(4*span, 32, st.take); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportSimSpeed(b, span)
}

// BenchmarkEngineEventMixedLoad is the event kernel's headline benchmark:
// 1 saturated + 15 idle masters on the AMBA bus, where whole-cycle skipping
// is impossible and the strict/skip kernels pay for every idle master every
// cycle. The event/skip Msimcycles/s ratio is the active-set speedup; it
// grows with the idle fraction (see the IdleScaling variant).
func BenchmarkEngineEventMixedLoad(b *testing.B) {
	const span = 100_000
	busy := mixedLoadBusy()
	for _, kernel := range []platform.KernelMode{platform.KernelStrict, platform.KernelSkip, platform.KernelEvent} {
		b.Run(kernel.String(), func(b *testing.B) {
			benchMixedLoad(b, mixedLoadSystem(b, kernel, busy, 15), span)
		})
	}
}

// BenchmarkEngineEventMixedLoadDense is the same mix with back-to-back
// single-word traffic: the bus transaction machinery runs every handful of
// cycles in every kernel, so the event kernel's lead narrows to the cost of
// the elided idle ticks over that shared floor.
func BenchmarkEngineEventMixedLoadDense(b *testing.B) {
	const span = 100_000
	for _, kernel := range []platform.KernelMode{platform.KernelStrict, platform.KernelSkip, platform.KernelEvent} {
		b.Run(kernel.String(), func(b *testing.B) {
			benchMixedLoad(b, mixedLoadSystem(b, kernel, mixedLoadBusyDense, 15), span)
		})
	}
}

// BenchmarkEngineEventMixedLoadBurst is the mix with burst traffic: the
// blocked master and the bus sleep on their reported occupancy horizons
// (ocp.WakeHinter), so the skip kernel recovers most of the gap by
// whole-cycle jumping and the event kernel keeps only a modest lead.
func BenchmarkEngineEventMixedLoadBurst(b *testing.B) {
	const span = 100_000
	for _, kernel := range []platform.KernelMode{platform.KernelStrict, platform.KernelSkip, platform.KernelEvent} {
		b.Run(kernel.String(), func(b *testing.B) {
			benchMixedLoad(b, mixedLoadSystem(b, kernel, mixedLoadBusyBurst, 15), span)
		})
	}
}

// BenchmarkEngineEventIdleScaling sweeps the idle-master count: event-kernel
// throughput should stay roughly flat while skip degrades linearly with the
// device count.
func BenchmarkEngineEventIdleScaling(b *testing.B) {
	const span = 100_000
	busy := mixedLoadBusy()
	for _, idle := range []int{3, 15, 63} {
		for _, kernel := range []platform.KernelMode{platform.KernelSkip, platform.KernelEvent} {
			b.Run(fmt.Sprintf("%didle/%s", idle, kernel), func(b *testing.B) {
				benchMixedLoad(b, mixedLoadSystem(b, kernel, busy, idle), span)
			})
		}
	}
}

// BenchmarkEngineEventHotspot drives the scenario library's problem case on
// the NoC: stochastic masters all targeting the shared memory, one
// injecting nearly back-to-back and the rest sleeping tens of thousands of
// cycles between injections. The network itself is one monolithic device
// that is awake whenever packets are in flight, so the event kernel's edge
// here comes from eliding the sleeping generators and the inter-packet
// gaps.
func BenchmarkEngineEventHotspot(b *testing.B) {
	const span = 20_000
	for _, kernel := range []platform.KernelMode{platform.KernelStrict, platform.KernelSkip, platform.KernelEvent} {
		b.Run(kernel.String(), func(b *testing.B) {
			scfg := stochastic.Config{
				MeanGap: 30_000,
				Count:   1 << 30,
				Seed:    42,
				Ranges:  []ocp.AddrRange{noctg.SharedRange()},
			}
			busyCfg := scfg
			busyCfg.MeanGap = 24
			sys, err := platform.Build(platform.Config{
				Cores:        4,
				Interconnect: platform.XPipes,
				Kernel:       kernel,
			}, func(_ *platform.System, id int, port ocp.MasterPort) platform.Master {
				cfg := scfg
				if id == 0 {
					cfg = busyCfg
				}
				return stochastic.New(id, cfg, port)
			})
			if err != nil {
				b.Fatal(err)
			}
			benchMixedLoad(b, sys, span)
		})
	}
}

// --- sharded execution ---

// newShardScalingSystem builds the shard-scaling workload: a 16×16 mesh
// whose 96 stochastic masters (rows 0–5) run the scenario library's
// hotspot pattern against the slave rows at the top — a weighted slice of
// all traffic converges on one private memory, the remainder spreads
// uniformly. Every transaction crosses the band boundaries, so the
// benchmark measures the windowed protocol with real cut traffic, not an
// embarrassingly parallel split. The traffic is pure request-response
// (reads): a posted-write mix has unbounded queue-depth tails — the
// in-flight maximum creeps forever and no alloc-free steady state exists —
// while blocking reads hard-bound the live state at two packets per
// master, so a short warmup visits every high-water mark.
func newShardScalingSystem(tb testing.TB, shards int) *platform.System {
	tb.Helper()
	const cores = 96 // the memory map tops out below 112 private ranges
	dests := make([]ocp.AddrRange, cores)
	for d := range dests {
		dests[d] = noctg.PrivRange(d)
	}
	weights := make([]float64, cores)
	weights[cores/2] = 0.03 // ~3× the uniform share, under the slave's 0.5 pkt/cycle ceiling
	scfg := stochastic.Config{
		Dist:         stochastic.Poisson,
		MeanGap:      8, // ~0.11 offered txn/cycle per master — load past the 0.1 mark
		ReadFraction: 1,
		Count:        1 << 30,
		Seed:         7,
		Spatial: &stochastic.Spatial{
			Pattern:        stochastic.Hotspot,
			W:              12,
			H:              8,
			Dests:          dests,
			HotspotWeights: weights,
		},
	}
	sys, err := platform.Build(platform.Config{
		Cores:        cores,
		Interconnect: platform.XPipes,
		NoC:          noc.Config{Width: 16, Height: 16},
		Kernel:       platform.KernelEvent,
		Shards:       shards,
	}, func(_ *platform.System, id int, port ocp.MasterPort) platform.Master {
		return stochastic.New(id, scfg, port)
	})
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

// BenchmarkShardScaling measures the sharded runner's throughput at 1, 2
// and 4 shards on the 16×16 hotspot scenario. The simulated results are
// byte-identical across the variants (the shard-determinism gates pin
// that); only wall time may differ, and the N-shard/1-shard Msimcycles/s
// ratio is the parallel speedup on the host. Steady state allocates
// nothing (ReportAllocs must show 0). Only the 1shard variant belongs to
// the CI smoke gate: multi-shard ns/op scales with the runner's core
// count, which benchdiff's single-threaded normalization probe cannot
// cancel.
func BenchmarkShardScaling(b *testing.B) {
	const span = 10_000
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("%dshard", shards), func(b *testing.B) {
			sys := newShardScalingSystem(b, shards)
			// Warm up past the transients: packet pools, slave queues and
			// flit buffers all grow to their (structurally bounded)
			// high-water marks before the measured windows run alloc-free.
			sys.Sharded.Advance(5 * span)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if n, _ := sys.Sharded.Advance(span); n != span {
					b.Fatal("hotspot workload finished mid-benchmark")
				}
			}
			b.StopTimer()
			reportSimSpeed(b, span)
		})
	}
}

type idlePort struct{}

func (idlePort) TryRequest(*ocp.Request) bool        { return false }
func (idlePort) TakeResponse() (*ocp.Response, bool) { return nil, false }
func (idlePort) Busy() bool                          { return false }

// sinkPort accepts every request without touching it: the open-loop
// counterpart of idlePort, for driving generators at full rate with zero
// port-side allocation.
type sinkPort struct{}

func (sinkPort) TryRequest(*ocp.Request) bool        { return true }
func (sinkPort) TakeResponse() (*ocp.Response, bool) { return nil, false }
func (sinkPort) Busy() bool                          { return false }

// burstyGenerator builds one arrival-process generator injecting
// open-loop into a sinkPort: posted writes only, an effectively unbounded
// transaction budget, and the arrival model under test. Shared between
// BenchmarkBurstyInjection and the zero-alloc injection guard.
func burstyGenerator(cfg stochastic.Config) *stochastic.Generator {
	cfg.ReadFraction = -1 // posted writes: the injection path alone
	cfg.Count = 1 << 30
	cfg.Ranges = []ocp.AddrRange{{Base: 0, Size: 0x1000}}
	return stochastic.New(0, cfg, sinkPort{})
}

// burstyArrivalConfigs are the arrival models the injection benchmark and
// alloc guard sweep: the MMPP on/off chain, the superposed-Pareto
// self-similar source, and a priority-classed Poisson baseline.
func burstyArrivalConfigs() map[string]stochastic.Config {
	return map[string]stochastic.Config{
		"mmpp": {Seed: 1, MMPP: &stochastic.MMPP{
			StateGaps: []float64{3, 0}, StateDwells: []float64{80, 160}}},
		"selfsim": {Seed: 2, SelfSimilar: &stochastic.SelfSimilar{
			Sources: 16, Hurst: 0.8, OnMean: 50, OffMean: 100, PeakGap: 4}},
		"priority": {Seed: 3, Dist: stochastic.Poisson, MeanGap: 4,
			Classes: []float64{0.5, 0.3, 0.2}},
	}
}

// BenchmarkBurstyInjection measures the arrival-process injection hot
// path: one generator per model running open-loop against an
// instantly-accepting port. The Msimcycles/s metric tracks the per-cycle
// cost of the arrival state machines; allocs/op must stay at zero.
func BenchmarkBurstyInjection(b *testing.B) {
	for _, name := range []string{"mmpp", "selfsim", "priority"} {
		cfg := burstyArrivalConfigs()[name]
		b.Run(name, func(b *testing.B) {
			const span = 100_000
			g := burstyGenerator(cfg)
			e := sim.NewEngine(sim.Clock{})
			e.Add(g)
			e.RunFor(span) // warm the arrival state
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.RunFor(span)
			}
			b.StopTimer()
			reportSimSpeed(b, span)
			if g.Issued() == 0 {
				b.Fatal("generator injected nothing")
			}
		})
	}
}

func newBenchRAM(b *testing.B, bus *amba.Bus) *benchRAM {
	b.Helper()
	r := &benchRAM{}
	if err := bus.MapSlave(r, ocp.AddrRange{Base: 0x1000, Size: 0x1000}); err != nil {
		b.Fatal(err)
	}
	return r
}

// benchRAM is a trivial 1-wait-state slave for micro-benchmarks.
type benchRAM struct{ words [1024]uint32 }

func (r *benchRAM) AccessCycles(req *ocp.Request) uint64 { return uint64(req.Burst) }

func (r *benchRAM) Perform(req *ocp.Request) ocp.Response {
	idx := (req.Addr - 0x1000) / 4
	if req.Cmd.IsWrite() {
		copy(r.words[idx:], req.Data)
		return ocp.Response{}
	}
	data := make([]uint32, req.Burst)
	copy(data, r.words[idx:int(idx)+req.Burst])
	return ocp.Response{Data: data}
}

// --- analytic estimator & adaptive curves ---

// benchCurveSpec is the shared load-latency curve configuration for the
// adaptive-vs-uniform benchmark: the AMBA shared-bus scenario whose knee
// the estimator predicts exactly, with short phased windows so one curve
// stays in benchmark territory.
func benchCurveSpec(mode string) sweep.CurveSpec {
	return sweep.CurveSpec{
		Name: "bench-" + mode,
		Workload: sweep.Workload{
			Kind: sweep.KindStochastic, Dist: "poisson", Cores: 4,
			Pattern: "hotspot", PatternW: 2, PatternH: 2,
			Hotspot: []float64{1, 0, 0, 0}, Count: 300,
		},
		Fabric:  sweep.Fabric{Interconnect: sweep.FabricAMBA},
		Mode:    mode,
		Measure: sweep.Measure{WarmupCycles: 500, EpochCycles: 1000, Epochs: 3},
	}
}

// BenchmarkAnalyticEstimate measures the closed-form estimator's hot path:
// one full point prediction (knee + error bars) plus one load-level solve.
// The path is allocation-free (TestZeroAllocAnalyticEstimate pins it), so
// the number here is pure arithmetic — the cost of replacing a simulated
// load level with a predicted one.
func BenchmarkAnalyticEstimate(b *testing.B) {
	cs := benchCurveSpec(sweep.CurveModeAdaptive)
	est, err := sweep.NewEstimator(cs.Workload, cs.Fabric)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := est.Estimate()
		if est.LatencyAt(e.KneeGap+4) <= 0 {
			b.Fatal("estimator returned a non-positive latency")
		}
	}
}

// BenchmarkAdaptiveCurve measures a whole load-latency curve in both
// traversal modes on identical specs: the adaptive/uniform wall-clock
// ratio is the sweep-level payoff of the analytic seeding (the adaptive
// run simulates only the levels around the predicted knee).
func BenchmarkAdaptiveCurve(b *testing.B) {
	for _, mode := range []string{sweep.CurveModeUniform, sweep.CurveModeAdaptive} {
		b.Run(mode, func(b *testing.B) {
			cs := benchCurveSpec(mode)
			var simulated int
			for i := 0; i < b.N; i++ {
				curves, err := sweep.Runner{Workers: 1}.RunCurves([]sweep.CurveSpec{cs})
				if err != nil {
					b.Fatal(err)
				}
				if curves[0].Saturation == nil {
					b.Fatal("curve found no saturation point")
				}
				simulated = len(curves[0].Points)
				if mode == sweep.CurveModeAdaptive {
					simulated = curves[0].SimulatedLevels
				}
			}
			b.ReportMetric(float64(simulated), "levels-simulated")
		})
	}
}
