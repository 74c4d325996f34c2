// Zero-allocation guards for the kernel and transaction hot paths: CI runs
// these as ordinary tests, so a regression that reintroduces per-cycle or
// per-transaction allocation fails the build rather than only drifting a
// benchmark number.
//
// The guards measure with testing.AllocsPerRun over thousands of cycles,
// so even sub-1-alloc/op leaks (which integer allocs/op rounding hides in
// benchmark output) are caught. They are skipped under the race detector,
// whose instrumentation allocates on its own.

//go:build !race

package noctg_test

import (
	"runtime"
	"testing"
	"unsafe"

	"noctg/internal/core"
	"noctg/internal/exp"
	"noctg/internal/ocp"
	"noctg/internal/platform"
	"noctg/internal/prog"
	"noctg/internal/sim"
	"noctg/internal/stochastic"
	"noctg/internal/sweep"
)

func TestZeroAllocEngineTick(t *testing.T) {
	e := sim.NewEngine(sim.Clock{})
	n := 0
	for i := 0; i < 16; i++ {
		e.Add(sim.DeviceFunc(func(uint64) { n++ }))
	}
	if avg := testing.AllocsPerRun(10, func() { e.RunFor(1000) }); avg != 0 {
		t.Fatalf("Engine tick loop allocates %.2f allocs per 1000 cycles; the kernel must be allocation-free", avg)
	}
}

func TestZeroAllocTGDeviceIdleTick(t *testing.T) {
	p, err := core.Assemble("MASTER[0,0]\nBEGIN\nstart:\nIdle(1000000)\nJump(start)\nEND")
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.NewDevice(p, idlePort{})
	if err != nil {
		t.Fatal(err)
	}
	cycle := uint64(0)
	if avg := testing.AllocsPerRun(10, func() {
		for i := 0; i < 1000; i++ {
			d.Tick(cycle)
			cycle++
		}
	}); avg != 0 {
		t.Fatalf("TG device idle tick allocates %.2f allocs per 1000 cycles", avg)
	}
}

func TestZeroAllocTransactionPath(t *testing.T) {
	for _, ic := range []platform.Interconnect{platform.AMBA, platform.XPipes} {
		sys := newTransactionSystem(t, platform.Config{Interconnect: ic})
		// Warm the reusable buffers and pools, then demand exact zero.
		sys.Engine.RunFor(4096)
		if avg := testing.AllocsPerRun(5, func() { sys.Engine.RunFor(10_000) }); avg != 0 {
			t.Errorf("%v: steady-state transaction path allocates %.2f allocs per 10k cycles", ic, avg)
		}
	}
}

// TestZeroAllocMeteredTransactionPath extends the guard to a Trace: true
// platform nobody asked to record — what every sweep point runs on: the
// port monitors count transactions and observe latencies without keeping
// an event log or copying a payload, so steady state allocates nothing
// however many transactions go by.
func TestZeroAllocMeteredTransactionPath(t *testing.T) {
	for _, ic := range []platform.Interconnect{platform.AMBA, platform.XPipes} {
		sys := newTransactionSystem(t, platform.Config{Interconnect: ic, Trace: true})
		sys.Engine.RunFor(4096)
		before := sys.Monitors[0].Transactions()
		if avg := testing.AllocsPerRun(5, func() { sys.Engine.RunFor(10_000) }); avg != 0 {
			t.Errorf("%v: metered transaction path allocates %.2f allocs per 10k cycles", ic, avg)
		}
		if sys.Monitors[0].Transactions() == before {
			t.Fatalf("%v: the monitor metered no transaction", ic)
		}
		if sys.Monitors[0].Events() != nil {
			t.Fatalf("%v: a monitor nobody asked to record kept an event log", ic)
		}
	}
}

func TestZeroAllocStatsRegistryHotPath(t *testing.T) {
	// The stats registry's metric hot paths — counter adds and histogram
	// observes on registered device-owned metrics — run on every
	// transaction of every simulation and must never allocate; only
	// registration and boundary snapshots may.
	reg := sim.NewRegistry()
	var c sim.Counter
	h := sim.NewLatencyHistogram()
	reg.Scope("dev").RegisterCounter("txns", &c)
	reg.Scope("dev").RegisterHistogram("latency", h)
	reg.OnSync(func(uint64) { c.Add(0) })
	if avg := testing.AllocsPerRun(10, func() {
		for i := uint64(0); i < 1000; i++ {
			c.Add(1)
			h.Observe(i & 511)
		}
	}); avg != 0 {
		t.Fatalf("registry metric hot path allocates %.2f allocs per 1000 ops", avg)
	}
	// Phase-boundary settlement and reset are also allocation-free (only
	// Snapshot, which builds maps, may allocate).
	if avg := testing.AllocsPerRun(10, func() {
		reg.Sync(1000)
		reg.Reset()
	}); avg != 0 {
		t.Fatalf("registry Sync+Reset allocates %.2f allocs per boundary", avg)
	}
}

// TestZeroAllocPhasedTransactionPath extends the transaction-path guard to
// a system whose whole counter population is registry-registered: the
// steady-state tick loop (TG masters, fabric, monitors' registry metrics)
// must stay allocation-free with the stats subsystem fully wired.
func TestZeroAllocPhasedTransactionPath(t *testing.T) {
	for _, ic := range []platform.Interconnect{platform.AMBA, platform.XPipes} {
		sys := newTransactionSystem(t, platform.Config{Interconnect: ic})
		if sys.Stats == nil || sys.Stats.Counters() == 0 {
			t.Fatal("transaction system has no registered stats")
		}
		sys.Engine.RunFor(4096)
		if avg := testing.AllocsPerRun(5, func() {
			sys.Engine.RunFor(10_000)
			sys.Stats.Sync(sys.Engine.Cycle())
			sys.Stats.Reset()
		}); avg != 0 {
			t.Errorf("%v: phased steady state allocates %.2f allocs per 10k cycles", ic, avg)
		}
	}
}

// TestZeroAllocBurstyInjection guards the arrival-process injection hot
// path: the MMPP and self-similar state machines run per injection, so
// any allocation there scales with offered load. All state (the Pareto
// station arrays) is preallocated at construction; steady state must be
// exactly allocation-free under every arrival model.
func TestZeroAllocBurstyInjection(t *testing.T) {
	for name, cfg := range burstyArrivalConfigs() {
		g := burstyGenerator(cfg)
		e := sim.NewEngine(sim.Clock{})
		e.Add(g)
		e.RunFor(10_000) // warm the arrival state and scratch buffers
		if avg := testing.AllocsPerRun(10, func() { e.RunFor(10_000) }); avg != 0 {
			t.Errorf("%s: injection hot path allocates %.2f allocs per 10k cycles", name, avg)
		}
		if g.Issued() == 0 {
			t.Fatalf("%s: generator injected nothing", name)
		}
	}
}

func TestZeroAllocEventKernelMixedLoad(t *testing.T) {
	// The event kernel's whole run loop — wake filing, active-set
	// sweeps, wake hooks, cycle jumps — must stay allocation-free in steady state
	// on its target mixed-load workload.
	const span = 10_000
	sys := mixedLoadSystem(t, platform.KernelEvent, mixedLoadBusy(), 15)
	st := &stopper{at: span, span: span}
	sys.Engine.Add(st)
	done := st.take
	run := func() {
		if _, err := sys.Engine.RunEvery(4*span, 32, done); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the schedule storage, pools and reusable buffers
	if avg := testing.AllocsPerRun(5, run); avg != 0 {
		t.Errorf("event kernel mixed-load run allocates %.2f allocs per %d cycles", avg, span)
	}
}

// TestZeroAllocAnalyticEstimate guards the closed-form estimator's hot
// path: adaptive curves and the grid pre-pass call Estimate/LatencyAt/
// ThroughputAt per load level, and any allocation there would scale with
// sweep size. Compilation (New) may allocate; prediction may not.
func TestZeroAllocAnalyticEstimate(t *testing.T) {
	w := sweep.Workload{
		Kind: sweep.KindStochastic, Dist: "poisson", Cores: 4,
		Pattern: "uniform", PatternW: 2, PatternH: 2, Count: 300, MeanGap: 10,
	}
	for _, f := range []sweep.Fabric{
		{Interconnect: sweep.FabricAMBA},
		{Interconnect: sweep.FabricXPipes},
	} {
		est, err := sweep.NewEstimator(w, f)
		if err != nil {
			t.Fatal(err)
		}
		if avg := testing.AllocsPerRun(100, func() {
			e := est.Estimate()
			_ = est.LatencyAt(e.KneeGap + 4)
			_ = est.ThroughputAt(e.KneeGap + 4)
			_ = est.DemandRatioAt(e.KneeGap + 4)
		}); avg != 0 {
			t.Errorf("%s: estimator hot path allocates %.2f allocs per prediction", f.Label(), avg)
		}
	}
}

// TestZeroAllocGrantWake guards the bus's wake path: on a saturated 8-core
// AMBA TG platform under the event kernel every blocked master sleeps until
// the bus grants its request or completes its read, so each transaction
// takes early wakes and active-set insertions. Steady state must
// allocate nothing, and the masters must get exactly as far as under strict
// ticking — a missed wake would park a master for the rest of the run.
func TestZeroAllocGrantWake(t *testing.T) { checkWakeAllocs(t, platform.AMBA) }

// TestZeroAllocNIWake is TestZeroAllocGrantWake on a saturated ×pipes
// mesh: every blocked master sleeps until its NI wakes it for the accept
// (the request's tail entered the router) or for the response's delivery.
func TestZeroAllocNIWake(t *testing.T) { checkWakeAllocs(t, platform.XPipes) }

func checkWakeAllocs(t *testing.T, ic platform.Interconnect) {
	const span = 10_000
	build := func(kernel platform.KernelMode) (*platform.System, func()) {
		sys := newTransactionSystem(t, platform.Config{Cores: 8, Interconnect: ic, Kernel: kernel})
		st := &stopper{at: span, span: span}
		sys.Engine.Add(st)
		return sys, func() {
			if _, err := sys.Engine.RunEvery(4*span, 32, st.take); err != nil {
				t.Fatal(err)
			}
		}
	}
	sys, run := build(platform.KernelEvent)
	runs := 0
	counted := func() { run(); runs++ }
	counted() // warm the schedule storage and reusable buffers
	if avg := testing.AllocsPerRun(5, counted); avg != 0 {
		t.Errorf("saturated %v TG run allocates %.2f allocs per %d cycles", ic, avg, span)
	}
	ref, refRun := build(platform.KernelStrict)
	for i := 0; i < runs; i++ {
		refRun()
	}
	for i, m := range sys.Masters {
		got := m.(*core.Device).Transactions.Value()
		want := ref.Masters[i].(*core.Device).Transactions.Value()
		if got != want || want == 0 {
			t.Errorf("%v master %d issued %d transactions in %d cycles, %d under strict ticking",
				ic, i, got, sys.Engine.Cycle(), want)
		}
	}
}

// TestAllocBudgetPaperRow bounds the bytes one Table 2 row of the paper
// flow allocates: a traced reference run, its translation and one TG
// replay. Memories take only the pages a run writes, the monitor's event
// log grows in chunks without re-copying, and a TG instruction takes 12
// bytes; undoing any of them breaks the budget.
func TestAllocBudgetPaperRow(t *testing.T) {
	if size := unsafe.Sizeof(core.Inst{}); size > 12 {
		t.Fatalf("core.Inst takes %d bytes, want at most 12", size)
	}
	spec := prog.MPMatrix(4, 16)
	opt := exp.DefaultOptions()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ref, err := exp.RunReference(spec, opt, true)
	if err != nil {
		t.Fatal(err)
	}
	progs, _, _, err := exp.TranslateAll(spec, ref.Traces, core.DefaultTranslateConfig(exp.PollRangesFor(spec)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.RunTG(spec, progs, opt); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	// Measured 3 550 208 bytes (go1.24, linux/amd64), plus 15 %.
	const budget = 4_083_000
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Fatalf("%s/%dP paper row allocates %d bytes, budget %d", spec.Name, spec.Cores, got, budget)
	}
}

// TestZeroAllocCloneReplay guards the cloning baseline's steady state: a
// clone replaying recorded writes into a sink port copies each payload
// into its one reusable buffer, so replaying allocates nothing.
func TestZeroAllocCloneReplay(t *testing.T) {
	const n = 100_000
	events := make([]ocp.Event, n)
	for i := range events {
		events[i] = ocp.Event{Cmd: ocp.Write, Addr: uint32(i%64) * 4, Burst: 1,
			Assert: uint64(2 * i), Data: []uint32{uint32(i)}}
	}
	c := stochastic.NewClone(0, events, sinkPort{})
	cycle := uint64(0)
	tick := func() {
		for i := 0; i < 1000; i++ {
			c.Tick(cycle)
			cycle++
		}
	}
	tick() // warm the payload buffer
	if avg := testing.AllocsPerRun(10, tick); avg != 0 {
		t.Fatalf("clone replay allocates %.2f allocs per 1000 cycles", avg)
	}
	if c.Done() {
		t.Fatal("clone ran out of recorded events before the measurement ended")
	}
}

// TestAllocBudgetGenerator holds a stochastic generator, drawn model
// included, to the 320-byte size class and stochastic.New to 7
// allocations of 6 032 bytes (go1.24, linux/amd64): the sweep builds one
// per master per point, so one more allocation or size class shows up as
// campaign allocation volume (alloc_mb).
func TestAllocBudgetGenerator(t *testing.T) {
	if size := unsafe.Sizeof(stochastic.Generator{}); size > 320 {
		t.Fatalf("stochastic.Generator takes %d bytes, want at most 320", size)
	}
	cfg := stochastic.Config{Dist: stochastic.Poisson, MeanGap: 8, Count: 100, Seed: 1,
		Ranges: []ocp.AddrRange{{Base: 0, Size: 0x1000}}}
	var g *stochastic.Generator
	var before, after runtime.MemStats
	const runs = 100
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		g = stochastic.New(i, cfg, sinkPort{})
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(g)
	// Integer means, like testing.AllocsPerRun: a stray allocation by
	// another goroutine must not tip the budget, one more per New must.
	allocs := (after.Mallocs - before.Mallocs) / runs
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	if allocs > 7 || bytes > 6032 {
		t.Fatalf("stochastic.New takes %d allocs and %d bytes, want at most 7 and 6032", allocs, bytes)
	}
}
