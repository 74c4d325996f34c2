package sim

import "testing"

// TestWindowedRunMatchesStrictReference drives the same pulse schedule
// through a reference strict engine and through windowed sessions on both
// kernels, with several window sizes, asserting identical device work and
// final cycles — the equivalence the shard runner's per-window advancement
// rests on.
func TestWindowedRunMatchesStrictReference(t *testing.T) {
	times := []uint64{0, 3, 4, 100, 1000, 1001, 5000}
	const end = 6000

	ref := NewEngine(Clock{})
	rp := &pulser{times: times}
	ref.Add(rp)
	ref.RunFor(end)

	for _, kernel := range []Kernel{KernelStrict, KernelEvent} {
		for _, window := range []uint64{1, 7, 64, 4096} {
			e := NewEngine(Clock{})
			p := &pulser{times: times}
			e.Add(p)
			e.SetKernel(kernel)
			w := e.BeginWindowed()
			for e.Cycle() < end {
				target := e.Cycle() + window
				if target > end {
					target = end
				}
				w.RunTo(target)
				if e.Cycle() != target {
					t.Fatalf("%v window %d: RunTo(%d) landed on %d", kernel, window, target, e.Cycle())
				}
			}
			w.Close()
			if p.work != rp.work || p.i != rp.i {
				t.Fatalf("%v window %d: work %d (want %d)", kernel, window, p.work, rp.work)
			}
			if e.Cycle() != end {
				t.Fatalf("%v window %d: final cycle %d", kernel, window, e.Cycle())
			}
		}
	}
}

// TestWindowedNextWakeHorizon checks the horizon query: the strict kernel
// reports now (it cannot bound activity), the event kernel reports the
// earliest pending pulse, and a drained engine reports WakeNever.
func TestWindowedNextWakeHorizon(t *testing.T) {
	e := NewEngine(Clock{})
	e.Add(&pulser{times: []uint64{500}})
	e.SetKernel(KernelEvent)
	w := e.BeginWindowed()
	if got := w.NextWake(); got != 500 {
		t.Fatalf("event: horizon %d, want 500", got)
	}
	w.RunTo(501)
	if got := w.NextWake(); got != WakeNever {
		t.Fatalf("event: drained horizon %d, want WakeNever", got)
	}
	w.Close()

	e = NewEngine(Clock{})
	e.Add(&pulser{times: []uint64{500}})
	w = e.BeginWindowed() // KernelStrict
	if got := w.NextWake(); got != 0 {
		t.Fatalf("strict horizon %d, want 0", got)
	}
	w.Close()
}

// napSink sleeps forever until externally woken, then does one unit of
// work at its next tick.
type napSink struct {
	waker   Waker
	pending bool
	work    int
}

func (s *napSink) SetWaker(w Waker) { s.waker = w }
func (s *napSink) Tick(cycle uint64) {
	if s.pending {
		s.pending = false
		s.work++
	}
}
func (s *napSink) NextWake(now uint64) uint64 {
	if s.pending {
		return now
	}
	return WakeNever
}

// TestWindowedWakeBetweenWindows stimulates a sleeping WakeSink between
// windows — the shard runner does exactly this after importing flits — and
// checks the device runs in the next window under the event kernel.
func TestWindowedWakeBetweenWindows(t *testing.T) {
	e := NewEngine(Clock{})
	s := &napSink{}
	e.Add(s)
	e.SetKernel(KernelEvent)
	w := e.BeginWindowed()
	w.RunTo(10)
	if got := w.NextWake(); got != WakeNever {
		t.Fatalf("horizon %d before stimulus", got)
	}
	s.pending = true
	s.waker.Wake()
	if got := w.NextWake(); got != 10 {
		t.Fatalf("horizon %d after stimulus, want 10", got)
	}
	w.RunTo(11)
	if s.work != 1 {
		t.Fatalf("work %d after wake, want 1", s.work)
	}
	w.Close()
}

// TestWindowedSkippedCyclesClamp verifies that an all-asleep jump clamps
// at the window target rather than overshooting to the device's wake.
func TestWindowedSkippedCyclesClamp(t *testing.T) {
	e := NewEngine(Clock{})
	e.Add(&pulser{times: []uint64{1000}})
	e.SetKernel(KernelEvent)
	w := e.BeginWindowed()
	w.RunTo(500)
	if e.Cycle() != 500 {
		t.Fatalf("clamped jump landed on %d, want 500", e.Cycle())
	}
	w.RunTo(2000)
	w.Close()
	if e.Cycle() != 2000 {
		t.Fatalf("final cycle %d, want 2000", e.Cycle())
	}
}
