package cpu

import (
	"errors"
	"fmt"
	"testing"

	"noctg/internal/sim"
)

func never() bool { return false }

// TestCoreWaitsForItsRequestToBePresented: a request begun in cycle k is
// first presented to the port in cycle k+1, so the core must ask for that
// tick. Sleeping on the handshake instead (the port has no request to
// answer yet) would park the core for ever.
func TestCoreWaitsForItsRequestToBePresented(t *testing.T) {
	r := buildRig(t, "halt")
	r.e.SetKernel(sim.KernelEvent)
	// Cycle 0 begins the first fetch, an I-cache miss.
	if _, err := r.e.Run(1, never); !errors.Is(err, sim.ErrMaxCycles) {
		t.Fatalf("Run(1) = %v", err)
	}
	if w := r.core.NextWake(1); w != 1 {
		t.Fatalf("NextWake(1) = %d with the first fetch not yet presented, want 1", w)
	}
	r.run(t, 1000)
	if r.core.InstRet != 1 {
		t.Fatalf("InstRet = %d", r.core.InstRet)
	}
}

// TestCoreCountsSleptStallCycles: a core blocked on the bus sleeps with
// WakeNever until the port wakes it, and credits the cycles it slept to
// StallCycles when it wakes. The event engine is driven one cycle per Run,
// so the core also sleeps across Run calls; every counter must match
// strict ticking.
func TestCoreCountsSleptStallCycles(t *testing.T) {
	src := fmt.Sprintf(`
		ldi r1, %#x
		ldi r2, 12
	loop:
		ldr r3, [r1+0]
		str r3, [r1+4]
		subi r2, r2, 1
		bne r2, r0, loop
		halt`, sharedBase)
	strict := runSrc(t, src)
	ev := buildRig(t, src)
	ev.e.SetKernel(sim.KernelEvent)
	slept := 0
	for !ev.core.Halted() {
		if ev.e.Cycle() > 100_000 {
			t.Fatal("event-kernel core did not halt")
		}
		if _, err := ev.e.Run(1, never); !errors.Is(err, sim.ErrMaxCycles) {
			t.Fatalf("Run(1) = %v", err)
		}
		if ev.core.NextWake(ev.e.Cycle()) == sim.WakeNever && !ev.core.Halted() {
			slept++
		}
	}
	if slept == 0 {
		t.Fatal("the core never slept on the port")
	}
	s, e := strict.core, ev.core
	if s.StallCycles == 0 || e.StallCycles != s.StallCycles || e.InstRet != s.InstRet || e.HaltCycle() != s.HaltCycle() {
		t.Fatalf("event: stall %d inst %d halt %d; strict: stall %d inst %d halt %d",
			e.StallCycles, e.InstRet, e.HaltCycle(), s.StallCycles, s.InstRet, s.HaltCycle())
	}
}
