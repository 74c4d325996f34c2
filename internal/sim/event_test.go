package sim

import (
	"errors"
	"fmt"
	"testing"
)

// wakeSink is a WakeSink test device: it sleeps (WakeNever) until another
// device stimulates it, then runs for `runTicks` ticks, performs one unit
// of work on the last of them, and goes back to sleep.
type wakeSink struct {
	waker   Waker
	pending int
	runTicks
	ticks []uint64
	work  int
}

type runTicks struct{ n int }

func (s *wakeSink) SetWaker(w Waker) { s.waker = w }

// stimulate is called from another device's Tick (the cross-device input
// path the event kernel must not sleep through).
func (s *wakeSink) stimulate() {
	s.pending = s.n
	if s.waker != nil {
		s.waker.Wake()
	}
}

func (s *wakeSink) Tick(c uint64) {
	if s.pending == 0 {
		return
	}
	s.ticks = append(s.ticks, c)
	s.pending--
	if s.pending == 0 {
		s.work++
	}
}

func (s *wakeSink) NextWake(now uint64) uint64 {
	if s.pending > 0 {
		return now
	}
	return WakeNever
}

// stimulator pokes a wakeSink at each scheduled cycle.
type stimulator struct {
	times []uint64
	i     int
	sink  *wakeSink
}

func (p *stimulator) Tick(c uint64) {
	if p.i < len(p.times) && c == p.times[p.i] {
		p.i++
		p.sink.stimulate()
	}
}

func (p *stimulator) NextWake(now uint64) uint64 {
	if p.i >= len(p.times) {
		return WakeNever
	}
	if t := p.times[p.i]; t > now {
		return t
	}
	return now
}

func TestEventKernelEquivalence(t *testing.T) {
	times := []uint64{0, 3, 4, 100, 1000, 1001, 5000}
	for _, stride := range []uint64{1, 7, 32} {
		strict := NewEngine(Clock{})
		ps := &pulser{times: times}
		strict.Add(ps)
		ranS, errS := strict.RunEvery(100_000, stride, ps.done)

		ev := NewEngine(Clock{})
		pe := &pulser{times: times}
		ev.Add(pe)
		ev.SetKernel(KernelEvent)
		ranE, errE := ev.RunEvery(100_000, stride, pe.done)

		if ranS != ranE || strict.Cycle() != ev.Cycle() {
			t.Fatalf("stride %d: strict ran %d (cycle %d), event ran %d (cycle %d)",
				stride, ranS, strict.Cycle(), ranE, ev.Cycle())
		}
		if (errS == nil) != (errE == nil) {
			t.Fatalf("stride %d: strict err %v, event err %v", stride, errS, errE)
		}
		if ps.work != pe.work {
			t.Fatalf("stride %d: strict work %d, event work %d", stride, ps.work, pe.work)
		}
		if ev.SkippedCycles == 0 {
			t.Fatalf("stride %d: event kernel never skipped", stride)
		}
		// The event kernel ticks the pulser only at its scheduled cycles.
		if pe.ticks != len(times) {
			t.Fatalf("stride %d: event kernel ticked %d times, want %d", stride, pe.ticks, len(times))
		}
	}
}

func TestEventKernelTicksOnlyAwakeDevices(t *testing.T) {
	// One dense device keeps the engine executing every cycle; the sparse
	// device must still be ticked only at its own schedule. The skip kernel
	// cannot elide these ticks (the dense device blocks every whole-cycle
	// skip), which is exactly the mixed-load gap the event kernel closes.
	dense := make([]uint64, 1000)
	for i := range dense {
		dense[i] = uint64(i)
	}
	sparse := []uint64{0, 400, 999}

	e := NewEngine(Clock{})
	d := &pulser{times: dense}
	s := &pulser{times: sparse}
	e.Add(d)
	e.Add(s)
	e.SetKernel(KernelEvent)
	if _, err := e.Run(2000, func() bool { return d.done() && s.done() }); err != nil {
		t.Fatal(err)
	}
	if d.work != len(dense) || s.work != len(sparse) {
		t.Fatalf("work: dense %d/%d, sparse %d/%d", d.work, len(dense), s.work, len(sparse))
	}
	if s.ticks != len(sparse) {
		t.Fatalf("sparse device ticked %d times, want exactly %d", s.ticks, len(sparse))
	}
	if d.ticks != len(dense) {
		t.Fatalf("dense device ticked %d times, want exactly %d", d.ticks, len(dense))
	}
}

func TestEventKernelWakeSameCycle(t *testing.T) {
	// The stimulator registers before the sink, so under strict ticking the
	// sink's slot at the stimulus cycle runs after the stimulus: the event
	// kernel must tick the woken sink in that same cycle.
	e := NewEngine(Clock{})
	sink := &wakeSink{runTicks: runTicks{n: 3}}
	stim := &stimulator{times: []uint64{50}, sink: sink}
	e.Add(stim)
	e.Add(sink)
	e.SetKernel(KernelEvent)
	if _, err := e.Run(10_000, func() bool { return sink.work > 0 }); err != nil {
		t.Fatal(err)
	}
	want := []uint64{50, 51, 52}
	if len(sink.ticks) != len(want) {
		t.Fatalf("sink ticked at %v, want %v", sink.ticks, want)
	}
	for i, c := range want {
		if sink.ticks[i] != c {
			t.Fatalf("sink ticked at %v, want %v", sink.ticks, want)
		}
	}
}

func TestEventKernelWakeNextCycle(t *testing.T) {
	// Sink registered before the stimulator: under strict ticking the
	// sink's slot at the stimulus cycle ran before the stimulus existed, so
	// its first acting tick is the next cycle — the event kernel must match.
	e := NewEngine(Clock{})
	sink := &wakeSink{runTicks: runTicks{n: 3}}
	stim := &stimulator{times: []uint64{50}, sink: sink}
	e.Add(sink)
	e.Add(stim)
	e.SetKernel(KernelEvent)
	if _, err := e.Run(10_000, func() bool { return sink.work > 0 }); err != nil {
		t.Fatal(err)
	}
	want := []uint64{51, 52, 53}
	if len(sink.ticks) != len(want) {
		t.Fatalf("sink ticked at %v, want %v", sink.ticks, want)
	}
	for i, c := range want {
		if sink.ticks[i] != c {
			t.Fatalf("sink ticked at %v, want %v", sink.ticks, want)
		}
	}
}

func TestEventKernelRegistrationOrderWithinCycle(t *testing.T) {
	// Several devices waking at the same cycle must tick in registration
	// order — the heap's (wake, index) ordering, asserted via a shared log.
	var order []int
	e := NewEngine(Clock{})
	const n = 8
	done := 0
	for i := 0; i < n; i++ {
		i := i
		e.Add(&orderedSleeper{wake: 100, fn: func() { order = append(order, i); done++ }})
	}
	e.SetKernel(KernelEvent)
	if _, err := e.Run(1000, func() bool { return done == n }); err != nil {
		t.Fatal(err)
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("tick order %v, want registration order", order)
		}
	}
}

// orderedSleeper sleeps to a fixed cycle, runs fn once, then never wakes.
type orderedSleeper struct {
	wake uint64
	fn   func()
	ran  bool
}

func (o *orderedSleeper) Tick(c uint64) {
	if !o.ran && c >= o.wake {
		o.ran = true
		o.fn()
	}
}

func (o *orderedSleeper) NextWake(now uint64) uint64 {
	if o.ran {
		return WakeNever
	}
	if o.wake > now {
		return o.wake
	}
	return now
}

func TestEventKernelLimitAndWakeNever(t *testing.T) {
	// Budget exhaustion and the frozen-forever case must land on exactly
	// the strict kernel's final cycle, for every kernel.
	for _, kernel := range []Kernel{KernelStrict, KernelSkip, KernelEvent} {
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

func TestEventKernelStrideDetectionRounding(t *testing.T) {
	// Work completes at cycle 9; stride 8 → detection at relative cycle 16
	// on every kernel (see TestSkipKernelStrideDetectionRounding).
	for _, kernel := range []Kernel{KernelStrict, KernelSkip, KernelEvent} {
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

// TestWakeTicksSleepingSink: a WakeSink asleep with WakeNever and
// stimulated mid-run through Wake does its pending work on every kernel,
// at strict's cycles. Registered after the stimulator, it ticks in the
// stimulus cycle; registered before it, the Wake lands after the sink's
// own tick has filed it asleep, and it first ticks a cycle later.
func TestWakeTicksSleepingSink(t *testing.T) {
	for _, row := range []struct {
		name      string
		sinkFirst bool
		want      uint64
	}{
		{"stimulator first", false, 53},
		{"sink first", true, 54},
	} {
		for _, kernel := range []Kernel{KernelStrict, KernelSkip, KernelEvent} {
			e := NewEngine(Clock{})
			sink := &wakeSink{runTicks: runTicks{n: 3}}
			stim := &stimulator{times: []uint64{50}, sink: sink}
			if row.sinkFirst {
				e.Add(sink)
				e.Add(stim)
			} else {
				e.Add(stim)
				e.Add(sink)
			}
			e.SetKernel(kernel)
			ran, err := e.Run(10_000, func() bool { return sink.work > 0 })
			if err != nil {
				t.Fatalf("%s, kernel %v: %v", row.name, kernel, err)
			}
			if sink.work != 1 || ran != row.want {
				t.Fatalf("%s, kernel %v: work %d after %d cycles, want 1 after %d",
					row.name, kernel, sink.work, ran, row.want)
			}
		}
	}
}

func TestEventKernelResumesAcrossRuns(t *testing.T) {
	// The schedule is rebuilt at each Run, so state changed between runs
	// (or a paused run) is picked up.
	e := NewEngine(Clock{})
	p := &pulser{times: []uint64{10, 500}}
	e.Add(p)
	e.SetKernel(KernelEvent)
	if _, err := e.Run(100, func() bool { return p.i >= 1 }); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(1000, p.done); err != nil {
		t.Fatal(err)
	}
	if p.work != 2 || p.ticks != 2 {
		t.Fatalf("work %d ticks %d, want 2 and 2", p.work, p.ticks)
	}
}

// blindSink never reports a wake of its own, like a master blocked on its
// port: it does its work only because WakeAt schedules it. Work k is due at
// due[k] and done at seen[k]; the first piece also schedules the next cycle
// from inside the sink's own tick.
type blindSink struct {
	waker     Waker
	due, seen []uint64
}

func (b *blindSink) SetWaker(w Waker)       { b.waker = w }
func (b *blindSink) NextWake(uint64) uint64 { return WakeNever }

func (b *blindSink) Tick(c uint64) {
	if k := len(b.seen); k < len(b.due) && c >= b.due[k] {
		b.seen = append(b.seen, c)
		if k == 0 {
			b.due = append(b.due, c+1)
			b.waker.WakeAt(c + 1)
		}
	}
}

// scheduler gives the sink work due delay[i] cycles after cycle at[i].
type scheduler struct {
	at, delay []uint64
	i         int
	sink      *blindSink
}

func (s *scheduler) Tick(c uint64) {
	if s.i < len(s.at) && c == s.at[s.i] {
		d := c + s.delay[s.i]
		s.sink.due = append(s.sink.due, d)
		s.sink.waker.WakeAt(d)
		s.i++
	}
}

func (s *scheduler) NextWake(now uint64) uint64 {
	if s.i >= len(s.at) {
		return WakeNever
	}
	return max(s.at[s.i], now)
}

// TestWakeAtTicksTheSleeperAtItsCycle: a scheduled wake ticks a device
// that reports WakeNever exactly at the scheduled cycle on every kernel —
// scheduled from another device or from its own tick, one cycle or
// thousands ahead, and across Run calls that end while it is pending.
func TestWakeAtTicksTheSleeperAtItsCycle(t *testing.T) {
	want := []uint64{50, 51, 61, 5200}
	for _, k := range []Kernel{KernelStrict, KernelSkip, KernelEvent} {
		e := NewEngine(Clock{})
		e.SetKernel(k)
		sink := &blindSink{}
		e.Add(sink)
		e.Add(&scheduler{at: []uint64{10, 60, 200}, delay: []uint64{40, 1, 5000}, sink: sink})
		done := func() bool { return len(sink.seen) == len(want) }
		for _, span := range []uint64{45, 3000} {
			if _, err := e.Run(span, done); !errors.Is(err, ErrMaxCycles) {
				t.Fatalf("%v: run of %d cycles: %v", k, span, err)
			}
		}
		if _, err := e.Run(10_000, done); err != nil {
			t.Fatalf("%v: %v (work done at %v)", k, err, sink.seen)
		}
		if fmt.Sprint(sink.seen) != fmt.Sprint(want) {
			t.Errorf("%v: work done at %v, want %v", k, sink.seen, want)
		}
		if k != KernelStrict && e.SkippedCycles == 0 {
			t.Errorf("%v: never skipped a cycle", k)
		}
	}
}
