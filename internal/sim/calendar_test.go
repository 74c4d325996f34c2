package sim

import (
	"fmt"
	"testing"
)

// alarm is a pulser that also takes wakes from its Waker, and records the
// cycle of every tick it gets.
type alarm struct {
	pulser
	waker Waker
	seen  []uint64
}

func (a *alarm) SetWaker(w Waker) { a.waker = w }

func (a *alarm) Tick(c uint64) {
	a.seen = append(a.seen, c)
	a.pulser.Tick(c)
}

// kicker runs do[k] in its tick at cycle at[k].
type kicker struct {
	at []uint64
	do []func()
	i  int
}

func (k *kicker) Tick(c uint64) {
	if k.i < len(k.at) && c == k.at[k.i] {
		k.do[k.i]()
		k.i++
	}
}

func (k *kicker) NextWake(now uint64) uint64 {
	if k.i >= len(k.at) {
		return WakeNever
	}
	return max(k.at[k.i], now)
}

// TestEventKernelFarWakeRefiled: wakes from one to thousands of cycles
// out, filed one after another, each tick the device at exactly its
// cycle, in ordinary runs and when a windowed run's boundary falls
// before, on or after it.
func TestEventKernelFarWakeRefiled(t *testing.T) {
	times := []uint64{0, 2, 17, 18, 48, 1000, 1016, 1017, 5000}
	want := fmt.Sprint(times)
	e := NewEngine(Clock{})
	a := &alarm{pulser: pulser{times: times}}
	e.Add(a)
	e.SetKernel(KernelEvent)
	if _, err := e.Run(10_000, a.done); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(a.seen); got != want {
		t.Fatalf("ticks at %s, want %s", got, want)
	}
	for _, window := range []uint64{1, 5, 15, 16, 17, 1000} {
		e := NewEngine(Clock{})
		a := &alarm{pulser: pulser{times: times}}
		e.Add(a)
		e.SetKernel(KernelEvent)
		w := e.BeginWindowed()
		for e.Cycle() < 6000 {
			w.RunTo(e.Cycle() + window)
		}
		w.Close()
		if got := fmt.Sprint(a.seen); got != want {
			t.Fatalf("window %d: ticks at %s, want %s", window, got, want)
		}
	}
}

// TestEventKernelWakeNeverParked: a device sleeping with WakeNever files
// no wake; only its Waker brings it back, at once (Wake), next cycle, a
// few cycles out or far out (WakeAt).
func TestEventKernelWakeNeverParked(t *testing.T) {
	e := NewEngine(Clock{})
	a := &alarm{}
	e.Add(a)
	k := &kicker{at: []uint64{10, 20, 30, 40}}
	k.do = []func(){
		func() { a.waker.WakeAt(11) },
		func() { a.waker.WakeAt(25) },
		func() { a.waker.WakeAt(120) },
		func() { a.waker.Wake() },
	}
	e.Add(k)
	e.SetKernel(KernelEvent)
	if _, err := e.Run(1000, func() bool { return false }); err == nil {
		t.Fatal("a run whose predicate stays false must hit its budget")
	}
	// The Wake from the later-registered kicker ticks the alarm in the
	// next cycle, as under strict ticking.
	if got, want := fmt.Sprint(a.seen), fmt.Sprint([]uint64{11, 25, 41, 120}); got != want {
		t.Fatalf("parked device ticked at %s, want %s", got, want)
	}
}

// TestEventKernelWakeAtMovesFarSleeper: a WakeAt earlier than a
// sleeper's filed wake moves the wake earlier. A device's own far wake
// still stands after the early tick; a wake an earlier WakeAt replaced
// does not.
func TestEventKernelWakeAtMovesFarSleeper(t *testing.T) {
	e := NewEngine(Clock{})
	a := &alarm{pulser: pulser{times: []uint64{0, 1000}}}
	b := &alarm{}
	e.Add(a)
	e.Add(b)
	e.Add(&kicker{at: []uint64{10, 20, 40}, do: []func(){
		func() { b.waker.WakeAt(500) },
		func() { b.waker.WakeAt(25) },
		func() { a.waker.WakeAt(45) },
	}})
	e.SetKernel(KernelEvent)
	if _, err := e.Run(2000, a.done); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(a.seen), fmt.Sprint([]uint64{0, 45, 1000}); got != want {
		t.Fatalf("own wakes: ticks at %s, want %s", got, want)
	}
	if got, want := fmt.Sprint(b.seen), fmt.Sprint([]uint64{25}); got != want {
		t.Fatalf("replaced wake: ticks at %s, want %s", got, want)
	}
}

// TestEventKernelEarlyWakeOfEarliestSleeper: waking the sleeper whose
// filed wake is the earliest leaves the engine's bound on filed wakes
// stale. The stale bound costs no executed cycle: the devices tick as
// under strict ticking, and every executed cycle ticks a device, whether
// the woken sleeper ticks in the waking cycle or the next, and whether a
// busy device keeps the engine stepping past the stale bound or every
// device sleeps across it.
func TestEventKernelEarlyWakeOfEarliestSleeper(t *testing.T) {
	cases := []struct {
		kickerFirst, busy bool
		seen              []uint64 // a's ticks
		executed          uint64
	}{
		{false, false, []uint64{0, 11, 3000}, 5}, // 0, 10, 11, 2000, 3000
		{false, true, []uint64{0, 11, 3000}, 1502},
		{true, false, []uint64{0, 10, 3000}, 4}, // 0, 10, 2000, 3000
		{true, true, []uint64{0, 10, 3000}, 1502},
	}
	run := func(kernel Kernel, kickerFirst, busy bool) (*alarm, int, *Engine) {
		e := NewEngine(Clock{})
		a := &alarm{pulser: pulser{times: []uint64{0, 1000, 3000}}}
		b := &alarm{pulser: pulser{times: []uint64{0, 2000}}}
		// The kicker cancels a's wake at 1000 and wakes it early.
		k := &kicker{at: []uint64{10}, do: []func(){func() {
			a.i++
			a.waker.Wake()
		}}}
		devs := []Device{a, b, k}
		if kickerFirst {
			devs = []Device{k, a, b}
		}
		if busy {
			p := &pulser{}
			for c := uint64(0); c < 1500; c++ {
				p.times = append(p.times, c)
			}
			devs = append(devs, p)
		}
		for _, d := range devs {
			e.Add(d)
		}
		e.SetKernel(kernel)
		if _, err := e.Run(10_000, a.done); err != nil {
			t.Fatal(err)
		}
		return a, a.work + b.work, e
	}
	for _, tc := range cases {
		_, strictWork, _ := run(KernelStrict, tc.kickerFirst, tc.busy)
		a, work, e := run(KernelEvent, tc.kickerFirst, tc.busy)
		if got, want := fmt.Sprint(a.seen), fmt.Sprint(tc.seen); got != want {
			t.Errorf("kicker first %v, busy %v: a ticked at %s, want %s", tc.kickerFirst, tc.busy, got, want)
		}
		if work != strictWork {
			t.Errorf("kicker first %v, busy %v: %d pulses, strict %d", tc.kickerFirst, tc.busy, work, strictWork)
		}
		if got := e.Cycle() - e.SkippedCycles; got != tc.executed {
			t.Errorf("kicker first %v, busy %v: %d cycles executed, want %d", tc.kickerFirst, tc.busy, got, tc.executed)
		}
	}
}

// TestEventKernelManyDevices: with more devices than one bitset word
// holds, the sweep keeps registration order across words. A stimulus from
// device 0 to device 100 is served the same cycle; one from device 129 to
// device 3 the next cycle; far and near wakes land in every word.
func TestEventKernelManyDevices(t *testing.T) {
	run := func(kernel Kernel) string {
		e := NewEngine(Clock{})
		early, late := &wakeSink{runTicks: runTicks{2}}, &wakeSink{runTicks: runTicks{3}}
		var pulsers []*pulser
		for i := 0; i < 130; i++ {
			var d Device
			switch i {
			case 0:
				d = &stimulator{times: []uint64{7, 300}, sink: late}
			case 3:
				d = early
			case 100:
				d = late
			case 129:
				d = &stimulator{times: []uint64{50, 51, 900}, sink: early}
			default:
				p := &pulser{times: []uint64{uint64(i % 7), uint64(20 + i), uint64(100 + 13*i)}}
				pulsers = append(pulsers, p)
				d = p
			}
			e.Add(d)
		}
		e.SetKernel(kernel)
		if _, err := e.Run(5000, func() bool { return false }); err == nil {
			t.Fatalf("%v: a run whose predicate stays false must hit its budget", kernel)
		}
		work := 0
		for _, p := range pulsers {
			work += p.work
			if kernel == KernelEvent && p.ticks != p.work {
				t.Errorf("event: a pulser ticked %d times for %d pulses", p.ticks, p.work)
			}
		}
		return fmt.Sprintf("early %v late %v pulses %d", early.ticks, late.ticks, work)
	}
	want := run(KernelStrict)
	if got := run(KernelEvent); got != want {
		t.Fatalf("event: %s\nstrict: %s", got, want)
	}
}
