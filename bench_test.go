// Micro-benchmarks of the simulation hot paths. Each is the timed twin of a
// TestZeroAlloc* guard in alloc_guard_test.go and shares its fixture, so
// -benchmem shows the 0 allocs/op the guard asserts — except
// BenchmarkEngineEventIdleScaling and BenchmarkShardScaling, the only places
// the device count and the shard count are swept, and the three
// BenchmarkAblation* sensitivity studies at the end, whose simcycles/errpct
// metrics no cmd/tgrepro report prints:
//
//	go test -run '^$' -bench . -benchmem .
//
// End-to-end performance is measured by the repository benchmark
// (go run ./benchmark, see benchmark/README.md) and the paper's tables are
// printed by cmd/tgrepro; neither has a copy here.
package noctg_test

import (
	"fmt"
	"strings"
	"testing"

	"noctg/internal/core"
	"noctg/internal/exp"
	"noctg/internal/layout"
	"noctg/internal/noc"
	"noctg/internal/ocp"
	"noctg/internal/platform"
	"noctg/internal/prog"
	"noctg/internal/sim"
	"noctg/internal/simtest"
	"noctg/internal/stochastic"
	"noctg/internal/sweep"
)

// reportSimSpeed reports the simulated-cycle throughput and the makespan.
func reportSimSpeed(b *testing.B, makespan uint64) {
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(makespan)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Msimcycles/s")
	}
	b.ReportMetric(float64(makespan), "simcycles")
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
// fabric is exercised. cfg picks the fabric, the kernel and the core count
// (2 when zero).
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
	if cfg.Cores == 0 {
		cfg.Cores = 2
	}
	progs := make([]*core.Program, cfg.Cores)
	for i := range progs {
		p, err := core.Assemble(src)
		if err != nil {
			tb.Fatal(err)
		}
		progs[i] = p
	}
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
	for _, name := range simtest.Table.Kernels {
		kernel := kernelOf(b, name)
		b.Run(name, func(b *testing.B) {
			benchMixedLoad(b, mixedLoadSystem(b, kernel, busy, 15), span)
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
		for _, name := range simtest.Table.Kernels[1:] { // the tick-eliding kernels
			kernel := kernelOf(b, name)
			b.Run(fmt.Sprintf("%didle/%s", idle, kernel), func(b *testing.B) {
				benchMixedLoad(b, mixedLoadSystem(b, kernel, busy, idle), span)
			})
		}
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
		dests[d] = layout.PrivRange(d)
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
// byte-identical across the variants (the execution-axis differentials
// pin that); only wall time may differ, and the N-shard/1-shard Msimcycles/s
// ratio is the parallel speedup on the host. Steady state allocates
// nothing (ReportAllocs must show 0).
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

// BenchmarkAnalyticEstimate measures the closed-form estimator's hot path:
// one full point prediction (knee + error bars) plus one load-level solve.
// The path is allocation-free (TestZeroAllocAnalyticEstimate pins it), so
// the number here is pure arithmetic — the cost of replacing a simulated
// load level with a predicted one.
func BenchmarkAnalyticEstimate(b *testing.B) {
	est, err := sweep.NewEstimator(sweep.Workload{
		Kind: sweep.KindStochastic, Dist: "poisson", Cores: 4,
		Pattern: "hotspot", PatternW: 2, PatternH: 2,
		Hotspot: []float64{1, 0, 0, 0}, Count: 300,
	}, sweep.Fabric{Interconnect: sweep.FabricAMBA})
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

// --- design-sensitivity ablations ---
//
// Cache geometry against the reference makespan and the configured poll
// period against TG accuracy: tgrepro -ablation prints the generator-model
// and arbitration ablations, not these.

func BenchmarkAblationLineSize(b *testing.B) {
	spec := prog.SPMatrix(16)
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
	// Cache associativity's effect on the reference run (the paper's caches
	// are unspecified; ours default to direct-mapped).
	spec := prog.SPMatrix(16)
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
	spec := prog.MPMatrix(4, 12)
	ref, err := exp.RunReference(spec, exp.DefaultOptions(), true)
	if err != nil {
		b.Fatal(err)
	}
	for _, gap := range []uint64{4, 8, 16} {
		b.Run(fmt.Sprintf("%dcyc", gap), func(b *testing.B) {
			cfg := core.DefaultTranslateConfig(nil)
			cfg.PollRanges = []core.PollRange{{Range: layout.SemRange(), Gap: gap}}
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
