package sim

import (
	"errors"
	"testing"
)

// pulser is a Sleeper test device that does work only at scheduled cycles.
type pulser struct {
	times []uint64
	i     int
	work  int
	ticks int
}

func (p *pulser) Tick(c uint64) {
	p.ticks++
	if p.i < len(p.times) && c == p.times[p.i] {
		p.work++
		p.i++
	}
}

func (p *pulser) NextWake(now uint64) uint64 {
	if p.i >= len(p.times) {
		return WakeNever
	}
	if t := p.times[p.i]; t > now {
		return t
	}
	return now
}

func (p *pulser) done() bool { return p.i >= len(p.times) }

// TestSkipKernelEquivalence holds skip to strict's simulated state and to
// its own definition: every device ticks on each executed cycle, and the
// kernel jumps exactly where event does. Two pulsers on different
// schedules tell that apart from event, which ticks each only at its wakes.
func TestSkipKernelEquivalence(t *testing.T) {
	type run struct {
		e   *Engine
		ran uint64
		err error
		ps  [2]pulser
	}
	exec := func(k Kernel, stride uint64) *run {
		r := &run{e: NewEngine(Clock{})}
		r.ps[0].times = []uint64{0, 3, 4, 100, 1000, 1001, 5000}
		r.ps[1].times = []uint64{2, 4, 700, 3000}
		r.e.Add(&r.ps[0])
		r.e.Add(&r.ps[1])
		r.e.SetKernel(k)
		r.ran, r.err = r.e.RunEvery(100_000, stride, func() bool { return r.ps[0].done() && r.ps[1].done() })
		return r
	}
	for _, stride := range []uint64{1, 7, 32} {
		strict, skip, event := exec(KernelStrict, stride), exec(KernelSkip, stride), exec(KernelEvent, stride)
		if strict.ran != skip.ran || strict.e.Cycle() != skip.e.Cycle() {
			t.Fatalf("stride %d: strict ran %d (cycle %d), skip ran %d (cycle %d)",
				stride, strict.ran, strict.e.Cycle(), skip.ran, skip.e.Cycle())
		}
		if strict.err != nil || skip.err != nil || event.err != nil {
			t.Fatalf("stride %d: strict err %v, skip err %v, event err %v", stride, strict.err, skip.err, event.err)
		}
		if skip.e.SkippedCycles == 0 {
			t.Fatalf("stride %d: skip kernel never skipped", stride)
		}
		if skip.e.SkippedCycles != event.e.SkippedCycles {
			t.Fatalf("stride %d: skip skipped %d cycles, event %d", stride, skip.e.SkippedCycles, event.e.SkippedCycles)
		}
		executed := skip.e.Cycle() - skip.e.SkippedCycles
		for i := range skip.ps {
			if strict.ps[i].work != skip.ps[i].work {
				t.Fatalf("stride %d, pulser %d: strict work %d, skip work %d", stride, i, strict.ps[i].work, skip.ps[i].work)
			}
			if uint64(skip.ps[i].ticks) != executed {
				t.Fatalf("stride %d, pulser %d: skip kernel ticked %d times in %d executed cycles",
					stride, i, skip.ps[i].ticks, executed)
			}
		}
	}
}

func TestSkipKernelLimitEquivalence(t *testing.T) {
	// A device that sleeps forever without the predicate holding must still
	// exhaust the budget at exactly the strict kernel's final cycle.
	for _, kernel := range []Kernel{KernelStrict, KernelSkip} {
		e := NewEngine(Clock{})
		p := &pulser{times: []uint64{2}}
		e.Add(p)
		e.SetKernel(kernel)
		ran, err := e.RunEvery(500, 32, func() bool { return false })
		if !errors.Is(err, ErrMaxCycles) {
			t.Fatalf("kernel %v: err = %v", kernel, err)
		}
		if ran != 500 || e.Cycle() != 500 {
			t.Fatalf("kernel %v: ran %d, cycle %d, want 500", kernel, ran, e.Cycle())
		}
	}
}

func TestSkipKernelFiniteWakeBeyondBudget(t *testing.T) {
	// Next wake beyond the budget: the run must fail at the budget, not at
	// the wake cycle.
	e := NewEngine(Clock{})
	p := &pulser{times: []uint64{0, 10_000}}
	e.Add(p)
	e.SetKernel(KernelSkip)
	ran, err := e.Run(100, p.done)
	if !errors.Is(err, ErrMaxCycles) {
		t.Fatalf("err = %v", err)
	}
	if ran != 100 || e.Cycle() != 100 {
		t.Fatalf("ran %d, cycle %d, want 100", ran, e.Cycle())
	}
}

// TestAlwaysAwakeDeviceAmongSleepers: a DeviceFunc states NextWake(now) =
// now, so it is ticked every cycle on every kernel, while the sleepers
// beside it keep their own promises. Skip and event must reach strict's
// simulated state and final cycle; on event the sleepers are ticked only
// at their wakes, never inside their sleep.
func TestAlwaysAwakeDeviceAmongSleepers(t *testing.T) {
	type run struct {
		cycle, ticks uint64
		a, b         pulser
	}
	exec := func(k Kernel) run {
		var r run
		r.a.times = []uint64{0, 3, 50, 120}
		r.b.times = []uint64{7, 80}
		e := NewEngine(Clock{})
		e.Add(&r.a)
		e.Add(DeviceFunc(func(uint64) { r.ticks++ }))
		e.Add(&r.b)
		e.SetKernel(k)
		if _, err := e.RunEvery(1000, 8, func() bool { return r.a.done() && r.b.done() }); err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		r.cycle = e.Cycle()
		return r
	}
	ref := exec(KernelStrict)
	if ref.ticks != ref.cycle {
		t.Fatalf("strict: always-awake device ticked %d times in %d cycles", ref.ticks, ref.cycle)
	}
	for _, k := range []Kernel{KernelSkip, KernelEvent} {
		t.Run(k.String(), func(t *testing.T) {
			got := exec(k)
			if got.cycle != ref.cycle || got.a.work != ref.a.work || got.b.work != ref.b.work {
				t.Fatalf("cycle %d, work %d/%d; strict: cycle %d, work %d/%d",
					got.cycle, got.a.work, got.b.work, ref.cycle, ref.a.work, ref.b.work)
			}
			if got.ticks != ref.ticks {
				t.Fatalf("always-awake device ticked %d times, strict %d", got.ticks, ref.ticks)
			}
			if k != KernelEvent {
				return
			}
			for _, p := range []pulser{got.a, got.b} {
				if p.ticks != p.work {
					t.Fatalf("sleeper ticked %d times for %d wakes: ticked inside its sleep", p.ticks, p.work)
				}
			}
		})
	}
}

func TestSkipKernelStrideDetectionRounding(t *testing.T) {
	// Work completes at cycle 9 (detected state after the tick at cycle 9,
	// i.e. engine cycle 10); stride 8 → strict detects at relative cycle 16.
	// The skip kernel must report the identical detection cycle.
	for _, kernel := range []Kernel{KernelStrict, KernelSkip} {
		e := NewEngine(Clock{})
		p := &pulser{times: []uint64{9}}
		e.Add(p)
		e.SetKernel(kernel)
		ran, err := e.RunEvery(1000, 8, p.done)
		if err != nil {
			t.Fatalf("kernel %v: %v", kernel, err)
		}
		if ran != 16 {
			t.Fatalf("kernel %v: detected after %d cycles, want 16", kernel, ran)
		}
	}
}

func TestRunEverySingleEvaluationPerBoundary(t *testing.T) {
	// done() must be evaluated exactly once per stride boundary: when the
	// budget's final cycle lands on a boundary, the old post-loop check
	// re-evaluated it a second time.
	e := NewEngine(Clock{})
	e.Add(DeviceFunc(func(uint64) {}))
	evals := 0
	_, err := e.RunEvery(20, 4, func() bool { evals++; return false })
	if !errors.Is(err, ErrMaxCycles) {
		t.Fatalf("err = %v", err)
	}
	if evals != 5 {
		t.Fatalf("done() evaluated %d times, want 5 (20 cycles / stride 4)", evals)
	}
}

func TestRunEveryStrideLargerThanBudget(t *testing.T) {
	// stride > maxCycles: no in-loop boundary is ever reached, so the
	// post-loop check must evaluate the predicate exactly once.
	e := NewEngine(Clock{})
	n := 0
	e.Add(DeviceFunc(func(uint64) { n++ }))
	evals := 0
	ran, err := e.RunEvery(10, 64, func() bool { evals++; return n >= 10 })
	if err != nil {
		t.Fatalf("final-cycle check missed: %v", err)
	}
	if ran != 10 {
		t.Fatalf("ran %d, want 10", ran)
	}
	if evals != 1 {
		t.Fatalf("done() evaluated %d times, want exactly 1", evals)
	}
}

func TestKernelString(t *testing.T) {
	if KernelStrict.String() != "strict" || KernelSkip.String() != "skip" {
		t.Fatal("kernel names changed")
	}
}
