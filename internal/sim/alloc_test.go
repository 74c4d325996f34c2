//go:build !race

package sim

import "testing"

// metronome wakes every period cycles and, each time, schedules its
// partner a fixed delay later.
type metronome struct {
	period, delay uint64
	partner       *alarm
}

func (m *metronome) Tick(c uint64) {
	if c%m.period == 0 {
		m.partner.waker.WakeAt(c + m.delay)
	}
}

func (m *metronome) NextWake(now uint64) uint64 {
	return (now + m.period - 1) / m.period * m.period
}

// TestZeroAllocCalendar: the event kernel's steady state allocates
// nothing while devices sleep far out, are admitted from the wake table,
// and park with WakeNever until a WakeAt brings them back.
func TestZeroAllocCalendar(t *testing.T) {
	e := NewEngine(Clock{})
	for i := 0; i < 8; i++ {
		a := &alarm{seen: make([]uint64, 0, 1<<16)}
		e.Add(a)
		e.Add(&metronome{period: uint64(97 + 10*i), delay: uint64(3 + 7*i), partner: a})
	}
	e.SetKernel(KernelEvent)
	var end uint64
	done := func() bool { return e.Cycle() >= end }
	run := func() {
		end = e.Cycle() + 10_000
		if _, err := e.Run(20_000, done); err != nil {
			t.Fatal(err)
		}
	}
	run() // sizes the schedule
	if avg := testing.AllocsPerRun(10, run); avg != 0 {
		t.Fatalf("event kernel allocates %.2f times per 10 000 cycles", avg)
	}
	if e.SkippedCycles == 0 {
		t.Fatal("the devices never all slept")
	}
}

// TestAllocBudgetReservedAdd: registering as many devices as Reserve sized
// an engine for grows no device table: the only allocations left are the
// wake handles of the devices that take one, where registering the same
// devices on an engine left to grow allocates more.
func TestAllocBudgetReservedAdd(t *testing.T) {
	const devices, runs = 12, 10
	devs := make([]Device, devices)
	sinks := 0
	for i := range devs {
		if i%2 == 0 {
			devs[i] = &alarm{} // a WakeSink: it takes a wake handle
			sinks++
		} else {
			devs[i] = &metronome{period: 7}
		}
	}
	register := func(reserve bool) float64 {
		// AllocsPerRun makes one warm-up run before the counted ones.
		engines := make([]*Engine, runs+1)
		for i := range engines {
			engines[i] = NewEngine(Clock{})
			if reserve {
				engines[i].Reserve(devices)
			}
		}
		k := 0
		return testing.AllocsPerRun(runs, func() {
			for _, d := range devs {
				engines[k].Add(d)
			}
			k++
		})
	}
	if avg := register(true); avg != float64(sinks) {
		t.Fatalf("registering %d reserved devices allocates %.2f times, want %d (one wake handle per WakeSink)", devices, avg, sinks)
	}
	if avg := register(false); avg <= float64(sinks) {
		t.Fatalf("registering without Reserve allocates %.2f times, no more than the %d wake handles; the test measures nothing", avg, sinks)
	}
}
