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

// TestEventKernelFarWakeRefiled: wakes evSlots or more cycles out wait in
// the far set and are re-filed into the ring as it turns; each one still
// ticks its device at exactly its cycle, in ordinary runs and when a
// windowed run's boundary falls before, on or after it.
func TestEventKernelFarWakeRefiled(t *testing.T) {
	times := []uint64{0, 2, evSlots + 1, evSlots + 2, 3 * evSlots, 1000, 1000 + evSlots, 1001 + evSlots, 5000}
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
	for _, window := range []uint64{1, 5, evSlots - 1, evSlots, evSlots + 1, 1000} {
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

// TestEventKernelWakeNeverParked: a device sleeping with WakeNever is
// parked in no ring slot and in no far list; only its Waker brings it
// back, at once (Wake), next cycle, a few cycles out or far out (WakeAt).
func TestEventKernelWakeNeverParked(t *testing.T) {
	e := NewEngine(Clock{})
	a := &alarm{}
	e.Add(a)
	k := &kicker{at: []uint64{10, 20, 30, 40}}
	k.do = []func(){
		func() { a.waker.WakeAt(11) },
		func() { a.waker.WakeAt(25) },
		func() { a.waker.WakeAt(40 + 5*evSlots) },
		func() { a.waker.Wake() },
	}
	e.Add(k)
	e.SetKernel(KernelEvent)
	if _, err := e.Run(1000, func() bool { return false }); err == nil {
		t.Fatal("a run whose predicate stays false must hit its budget")
	}
	// The Wake from the later-registered kicker ticks the alarm in the
	// next cycle, as under strict ticking.
	if got, want := fmt.Sprint(a.seen), fmt.Sprint([]uint64{11, 25, 41, 40 + 5*evSlots}); got != want {
		t.Fatalf("parked device ticked at %s, want %s", got, want)
	}
}

// TestEventKernelWakeAtMovesFarSleeper: a WakeAt earlier than a far
// sleeper's wake moves it into the ring. A device's own far wake still
// stands after the early tick; a wake an earlier WakeAt replaced does not.
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
