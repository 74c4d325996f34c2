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
// nothing while devices sleep far out, are re-filed into the ring, and
// park with WakeNever until a WakeAt brings them back.
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
