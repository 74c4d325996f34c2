package shard

import (
	"errors"
	"slices"
	"testing"

	"noctg/internal/sim"
	"noctg/internal/simtest"
)

// ticker counts its ticks. It is always awake, which keeps its shard's
// horizon at the current cycle and forces one-cycle lockstep windows.
type ticker struct{ ticks uint64 }

func (d *ticker) Tick(cycle uint64) { d.ticks++ }

func (d *ticker) NextWake(now uint64) uint64 { return now }

// napper sleeps until each of its scheduled wake cycles, letting the
// runner's window bound grow across globally quiescent spans.
type napper struct {
	wakes []uint64
	ticks uint64
}

func (d *napper) Tick(cycle uint64) {
	if len(d.wakes) > 0 && d.wakes[0] == cycle {
		d.wakes = d.wakes[1:]
		d.ticks++
	}
}

func (d *napper) NextWake(now uint64) uint64 {
	if len(d.wakes) == 0 {
		return sim.WakeNever
	}
	if d.wakes[0] < now {
		return now
	}
	return d.wakes[0]
}

// exchangeProbe records boundary traffic for the cadence assertions.
type exchangeProbe struct {
	calls   int
	pending int
	woken   int
}

func (f *exchangeProbe) Exchange() int {
	f.calls++
	n := f.pending
	f.pending = 0
	return n
}

func (f *exchangeProbe) Wake() { f.woken++ }

// newShard wires one engine+device into a Shard whose predicate fires once
// the engine reaches doneAt.
func newShard(dev sim.Device, kernel sim.Kernel, doneAt uint64) *Shard {
	e := sim.NewEngine(sim.Clock{})
	e.SetKernel(kernel)
	e.Add(dev)
	return &Shard{
		Engine:    e,
		Exchanger: &exchangeProbe{},
		Done:      func() bool { return e.Cycle() >= doneAt },
	}
}

// TestRunnerStopsTogether: shards with staggered local completion must all
// stop on the same cycle — the first stride boundary at or after the first
// boundary where the conjunction holds (cycle 400), clamped to the budget.
func TestRunnerStopsTogether(t *testing.T) {
	for _, tc := range []struct{ budget, stride, want uint64 }{
		{10_000, 1, 400},
		{10_000, 32, 416},
		{10_000, 100, 400}, // completion on a boundary stops there
		{10_000, 150, 450},
		{410, 32, 410}, // the boundary past the budget clamps to it
	} {
		doneAts := []uint64{100, 250, 400}
		shards := make([]*Shard, len(doneAts))
		devs := make([]*ticker, len(doneAts))
		for i, at := range doneAts {
			devs[i] = &ticker{}
			shards[i] = newShard(devs[i], sim.KernelStrict, at)
		}
		r := New(shards)
		if err := r.Run(tc.budget, tc.stride); err != nil {
			t.Fatalf("budget %d stride %d: %v", tc.budget, tc.stride, err)
		}
		for i, sh := range shards {
			if got := sh.Engine.Cycle(); got != tc.want {
				t.Fatalf("budget %d stride %d: shard %d stopped at %d, want %d", tc.budget, tc.stride, i, got, tc.want)
			}
			if devs[i].ticks != tc.want {
				t.Fatalf("budget %d stride %d: shard %d ticked %d times, want %d", tc.budget, tc.stride, i, devs[i].ticks, tc.want)
			}
		}
		if r.Cycle() != tc.want {
			t.Fatalf("budget %d stride %d: runner cycle %d, want %d", tc.budget, tc.stride, r.Cycle(), tc.want)
		}
	}
}

// TestRunnerStopRuleMatchesEngine pins the one stop rule from both sides:
// for every kernel, completion cycle, stride and budget — completion before
// the first cycle, on a boundary, past the budget — the runner must stop
// on exactly the cycle sim.Engine.RunEvery stops a single engine on, with
// the same verdict.
func TestRunnerStopRuleMatchesEngine(t *testing.T) {
	for _, x := range simtest.Rows(t, simtest.Kernel) {
		kernel := x.SimKernel()
		for _, doneAt := range []uint64{0, 1, 31, 32, 33, 64, 100} {
			for _, stride := range []uint64{1, 7, 32} {
				for _, budget := range []uint64{1, 32, 40, 64, 96, 1000} {
					// The napper's last wake is the completion cycle; done
					// reads device state only (the event kernel's contract).
					build := func() (*sim.Engine, func() bool) {
						e := sim.NewEngine(sim.Clock{})
						e.SetKernel(kernel)
						d := &napper{}
						if doneAt > 0 {
							d.wakes = []uint64{doneAt - 1}
						}
						e.Add(d)
						return e, func() bool { return len(d.wakes) == 0 }
					}
					re, rdone := build()
					_, refErr := re.RunEvery(budget, stride, rdone)
					se, sdone := build()
					gotErr := New([]*Shard{{Engine: se, Done: sdone}}).Run(budget, stride)
					if errors.Is(refErr, sim.ErrMaxCycles) != errors.Is(gotErr, sim.ErrMaxCycles) || (refErr == nil) != (gotErr == nil) {
						t.Fatalf("%v doneAt %d stride %d budget %d: engine err %v, runner err %v", kernel, doneAt, stride, budget, refErr, gotErr)
					}
					if re.Cycle() != se.Cycle() {
						t.Fatalf("%v doneAt %d stride %d budget %d: engine stopped at %d, runner at %d", kernel, doneAt, stride, budget, re.Cycle(), se.Cycle())
					}
				}
			}
		}
	}
}

// TestRunnerBudget: an unfinished run must consume exactly the budget and
// report sim.ErrMaxCycles.
func TestRunnerBudget(t *testing.T) {
	r := New([]*Shard{
		newShard(&ticker{}, sim.KernelStrict, 1000),
		newShard(&ticker{}, sim.KernelStrict, 1000),
	})
	err := r.Run(50, 32)
	if !errors.Is(err, sim.ErrMaxCycles) {
		t.Fatalf("err = %v, want ErrMaxCycles", err)
	}
	if r.Cycle() != 50 {
		t.Fatalf("cycle %d, want 50", r.Cycle())
	}
}

// TestRunnerExchangeCadence: with any shard active every cycle, windows
// must degenerate to single cycles — one Exchange per shard per cycle, the
// invariant that gives cut links uncut timing — and a reported import must
// trigger exactly one Wake.
func TestRunnerExchangeCadence(t *testing.T) {
	a := newShard(&ticker{}, sim.KernelStrict, 64)
	b := newShard(&ticker{}, sim.KernelStrict, 64)
	pb := b.Exchanger.(*exchangeProbe)
	pb.pending = 3 // imported at the first boundary
	r := New([]*Shard{a, b})
	if err := r.Run(1000, 1); err != nil {
		t.Fatal(err)
	}
	pa := a.Exchanger.(*exchangeProbe)
	if pa.calls != 64 || pb.calls != 64 {
		t.Fatalf("exchange calls %d/%d, want 64/64 (one per cycle)", pa.calls, pb.calls)
	}
	if pb.woken != 1 || pa.woken != 0 {
		t.Fatalf("wakes %d/%d, want 0/1", pa.woken, pb.woken)
	}
}

// TestRunnerWindowsSkipQuiescence: sleeping shards must let the window
// bound grow — the event kernel's jumps survive the windowed protocol —
// while still honouring every scheduled wake.
func TestRunnerWindowsSkipQuiescence(t *testing.T) {
	na := &napper{wakes: []uint64{10, 5_000}}
	nb := &napper{wakes: []uint64{10_000}}
	a := newShard(na, sim.KernelEvent, 0)
	b := newShard(nb, sim.KernelEvent, 0)
	// Like the platform's predicate, done is a function of device state
	// only (the event kernel's contract): all scheduled work drained.
	a.Done = func() bool { return len(na.wakes) == 0 }
	b.Done = func() bool { return len(nb.wakes) == 0 }
	r := New([]*Shard{a, b})
	if err := r.Run(100_000, 32); err != nil {
		t.Fatal(err)
	}
	if na.ticks != 2 || nb.ticks != 1 {
		t.Fatalf("wake ticks %d/%d, want 2/1", na.ticks, nb.ticks)
	}
	// The last wake executes in the window ending at 10_001, the first
	// boundary where the conjunction holds; one more quiescent window
	// lands the run on the next multiple of the stride.
	if r.Cycle() != 10_016 {
		t.Fatalf("cycle %d, want 10016", r.Cycle())
	}
	if skipped := a.Engine.SkippedCycles; skipped == 0 {
		t.Fatal("event kernel skipped nothing across quiescent windows")
	}
	// Exchanges happen only at executed boundaries, far fewer than cycles.
	if calls := a.Exchanger.(*exchangeProbe).calls; calls >= 1000 {
		t.Fatalf("%d exchanges for a mostly-quiescent run", calls)
	}
}

// bomb panics at its fuse cycle. It is always awake, so every kernel
// ticks it there.
type bomb struct{ fuse uint64 }

func (d *bomb) NextWake(now uint64) uint64 { return now }

func (d *bomb) Tick(cycle uint64) {
	if cycle == d.fuse {
		panic("shard test: bomb")
	}
}

// TestRunnerPanicPoison: a device panic on a worker shard must propagate
// to the caller (not kill the process or deadlock the barrier), and the
// poisoned runner must re-raise on any further use.
func TestRunnerPanicPoison(t *testing.T) {
	r := New([]*Shard{
		newShard(&ticker{}, sim.KernelStrict, 1000),
		newShard(&bomb{fuse: 42}, sim.KernelStrict, 1000),
	})
	mustPanic := func(op string) {
		t.Helper()
		defer func() {
			if v := recover(); v != "shard test: bomb" {
				t.Fatalf("%s: recovered %v, want the bomb's value", op, v)
			}
		}()
		_ = r.Run(10_000, 32)
		t.Fatalf("%s returned without panicking", op)
	}
	mustPanic("first run")
	mustPanic("poisoned rerun")
}

// TestRunnerPhasedMatchesEngine: a single-shard runner must reproduce
// sim.RunPhased exactly — boundaries, epochs, completion phase — for every
// completion stride and for completion in warm-up, mid-epoch and drain.
func TestRunnerPhasedMatchesEngine(t *testing.T) {
	build := func() (*sim.Engine, *ticker) {
		e := sim.NewEngine(sim.Clock{})
		d := &ticker{}
		e.Add(d)
		return e, d
	}
	phases := func(stride uint64, boundaries *[]uint64) sim.Phases {
		return sim.Phases{
			Warmup:      100,
			Epoch:       300,
			MaxEpochs:   5,
			Drain:       1000,
			Stride:      stride,
			AfterWarmup: func(now uint64) { *boundaries = append(*boundaries, now) },
			AfterEpoch: func(epoch int, start, end uint64) bool {
				*boundaries = append(*boundaries, start, end)
				return true
			},
		}
	}
	for _, stride := range []uint64{1, 32, 64} {
		for _, doneAt := range []uint64{50, 777, 1590, 1700, 5000} {
			re, rd := build()
			var refB []uint64
			refRes, refErr := re.RunPhased(phases(stride, &refB), 10_000, func() bool { return re.Cycle() >= doneAt })

			se, sd := build()
			var gotB []uint64
			r := New([]*Shard{{Engine: se, Done: func() bool { return se.Cycle() >= doneAt }}})
			gotRes, gotErr := r.RunPhased(phases(stride, &gotB), 10_000)

			if (refErr == nil) != (gotErr == nil) {
				t.Fatalf("stride %d doneAt %d: errors diverged: %v vs %v", stride, doneAt, refErr, gotErr)
			}
			if refRes != gotRes {
				t.Fatalf("stride %d doneAt %d: results diverged: %+v vs %+v", stride, doneAt, refRes, gotRes)
			}
			if !slices.Equal(refB, gotB) {
				t.Fatalf("stride %d doneAt %d: boundaries diverged: %v vs %v", stride, doneAt, refB, gotB)
			}
			if rd.ticks != sd.ticks {
				t.Fatalf("stride %d doneAt %d: work diverged: %d vs %d", stride, doneAt, rd.ticks, sd.ticks)
			}
		}
	}
}
