package noctg_test

import (
	"fmt"
	"testing"

	"noctg/internal/core"
	"noctg/internal/platform"
	"noctg/internal/simtest"
)

// TestBusCounterKernelEquivalence: the bus busy/idle counters are the same
// under both kernels, across a long idle span the event kernel skips.
func TestBusCounterKernelEquivalence(t *testing.T) {
	src := `MASTER[0,0]
REGISTER addr 0x08000000
REGISTER data 7
BEGIN
	Write(addr, data)
	Idle(5000)
	Write(addr, data)
	Halt
END`
	simtest.Differential(t, "bus counters", simtest.Kernel, func(t *testing.T, x simtest.Exec) []byte {
		progs := make([]*core.Program, 2)
		for i := range progs {
			p, err := core.Assemble(src)
			if err != nil {
				t.Fatal(err)
			}
			progs[i] = p
		}
		sys, err := platform.BuildTG(platform.Config{Cores: 2, Kernel: kernelOf(t, x.Kernel)}, progs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run(100_000); err != nil {
			t.Fatal(err)
		}
		return fmt.Appendf(nil, "busy=%d idle=%d", sys.Bus.BusyCycles(), sys.Bus.IdleCycles())
	})
}

// kernelOf is the platform kernel of an axis-table kernel name.
func kernelOf(t testing.TB, name string) platform.KernelMode {
	t.Helper()
	kernel, err := platform.ParseKernel(name)
	if err != nil {
		t.Fatal(err)
	}
	return kernel
}

// TestBusWaitCyclesBudgetExhaustTail pins the WaitCycles getter's tail
// settlement: a run cut off by its cycle budget while the bus sleeps
// through a long transfer with another master queued must still report the
// strict kernel's per-cycle wait counts (the lazily credited frozen-set
// span up to the final cycle).
func TestBusWaitCyclesBudgetExhaustTail(t *testing.T) {
	occupier := `MASTER[0,0]
REGISTER addr 0x08000000
REGISTER data 7
BEGIN
	BurstWrite(addr, data, 8)
	Idle(5000)
	Halt
END`
	waiter := `MASTER[0,0]
REGISTER addr 0x08000040
REGISTER data 9
BEGIN
	Write(addr, data)
	Halt
END`
	simtest.Differential(t, "bus wait cycles", simtest.Kernel, func(t *testing.T, x simtest.Exec) []byte {
		progs := make([]*core.Program, 2)
		for i, src := range []string{occupier, waiter} {
			p, err := core.Assemble(src)
			if err != nil {
				t.Fatal(err)
			}
			progs[i] = p
		}
		sys, err := platform.BuildTG(platform.Config{Cores: 2, Kernel: kernelOf(t, x.Kernel)}, progs)
		if err != nil {
			t.Fatal(err)
		}
		// The budget lands mid-transfer: the 8-beat burst occupies the bus
		// well past cycle 10 while the waiter sits in portRequesting.
		if _, err := sys.Run(10); err == nil {
			t.Fatal("expected the cycle budget to exhaust mid-transfer")
		}
		wait := sys.Bus.WaitCycles()
		if wait[1] == 0 {
			t.Fatalf("%v: waiter accumulated no wait cycles; the scenario is miswired", x)
		}
		return fmt.Append(nil, wait)
	})
}
