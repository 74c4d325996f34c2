package cpu

import (
	"errors"
	"fmt"
	"testing"

	"noctg/internal/cache"
	"noctg/internal/sim"
)

// snapshot renders everything the core holds, what its memory unit
// shows, and both caches' counters.
func snapshot(c *Core) string {
	ic, dc := c.mu.ICache(), c.mu.DCache()
	return fmt.Sprintf("next %d state %d pc %#x words %#x %#x inst %+v left %d halted %v faulted %v at %d "+
		"ret %d stall %d regs %v mu local %v busy %v icache %d/%d/%d dcache %d/%d/%d",
		c.next, c.state, c.pc, c.w0, c.w1, c.inst, c.execLeft, c.halted, c.faulted, c.haltCycle,
		c.InstRet, c.StallCycles, c.regs, c.mu.Local(), c.mu.Busy(),
		ic.Hits, ic.Misses, ic.Refills, dc.Hits, dc.Misses, dc.Refills)
}

// lockstep runs src on two rigs, one executing whole instructions and one
// per clock, a cycle at a time on kernel k until both cores stop, and
// fails at the first cycle after which the cores differ. It also fails
// unless seen, asked after every cycle with the cycle just run, reports
// true at least once for the whole-instruction core: the case under test
// must happen.
func lockstep(t *testing.T, src string, icache cache.Config, k sim.Kernel, seen func(c *Core, cycle uint64) bool) {
	t.Helper()
	whole, clock := buildRigICache(t, src, icache), buildRigICache(t, src, icache)
	clock.core.perClock = true
	happened := false
	for !whole.core.Halted() || !clock.core.Halted() {
		if whole.e.Cycle() > 200_000 {
			t.Fatal("the program did not stop")
		}
		for _, r := range []*testRig{whole, clock} {
			r.e.SetKernel(k)
			if _, err := r.e.Run(1, never); !errors.Is(err, sim.ErrMaxCycles) {
				t.Fatalf("Run(1) = %v", err)
			}
		}
		cycle := whole.e.Cycle() - 1
		if w, c := snapshot(whole.core), snapshot(clock.core); w != c {
			t.Fatalf("after cycle %d:\nwhole     %s\nper clock %s", cycle, w, c)
		}
		happened = happened || seen(whole.core, cycle)
	}
	if !happened {
		t.Fatal("the case under test never happened")
	}
}

// wholeCases are programs whose whole-instruction run-ahead must stop
// where the per-clock run-ahead stops, each with the state that shows it
// did.
var wholeCases = []struct {
	name   string
	src    string
	icache cache.Config
	seen   func(c *Core, cycle uint64) bool
}{{
	// The program starts 4 bytes into an 8-byte line, so every
	// instruction's second word opens a line: on the first pass the first
	// word hits (its line came in with the previous instruction) and the
	// second misses, putting the core on the bus after one clock.
	name: "second word misses",
	src: `
		.word 0
	start:
		ldi r1, 1
		addi r1, r1, 2
		mul r2, r1, r1
		addi r2, r2, 5
		halt`,
	icache: cache.Config{Lines: 64, WordsPerLine: 2},
	seen: func(c *Core, _ uint64) bool {
		return c.state == sFetch1 && !c.mu.Local()
	},
}, {
	// HALT shares its line with the loop's branch, so its fetch hits; the
	// run-ahead stops before the clock that retires it.
	name: "halt",
	src: `
		ldi r2, 6
	loop:
		subi r2, r2, 1
		bne r2, r0, loop
		halt`,
	icache: cache.Config{Lines: 64, WordsPerLine: 4},
	seen: func(c *Core, _ uint64) bool {
		return c.state == sExec && c.inst.Op == HALT && !c.halted
	},
}, {
	// A garbage word shares its line with the loop's branch: the run-ahead
	// fetches both its words and stops before the clock that decodes it.
	name: "faulting decode",
	src: `
		ldi r2, 6
	loop:
		subi r2, r2, 1
		bne r2, r0, loop
		.word 0xffffffff, 0`,
	icache: cache.Config{Lines: 64, WordsPerLine: 4},
	seen: func(c *Core, _ uint64) bool {
		return c.state == sFetch1 && !decodes(c.w0) && !c.halted
	},
}, {
	// A loop that never leaves the core runs ahead aheadMax cycles a tick;
	// its 15-cycle body makes some run-ahead end inside an instruction.
	name: "instruction straddles aheadMax",
	src: `
		ldi r2, 1200
	loop:
		addi r1, r1, 3
		mul r3, r1, r1
		subi r2, r2, 1
		bne r2, r0, loop
		halt`,
	icache: cache.Config{Lines: 64, WordsPerLine: 4},
	seen: func(c *Core, cycle uint64) bool {
		return c.next == cycle+aheadMax && c.state != sFetch0
	},
}}

// TestWholeInstructionStopsWherePerClockStops: on the strict and the event
// kernel, a core that runs ahead whole instructions holds, after every
// cycle, exactly the state of one that runs ahead a clock at a time —
// registers, pipeline state, counters, cache counters and the cycle it
// simulated to — through a second word that misses, a HALT, a faulting
// decode and an instruction cut by aheadMax.
func TestWholeInstructionStopsWherePerClockStops(t *testing.T) {
	for _, tc := range wholeCases {
		for _, k := range []sim.Kernel{sim.KernelStrict, sim.KernelEvent} {
			t.Run(fmt.Sprintf("%s/%v", tc.name, k), func(t *testing.T) {
				lockstep(t, tc.src, tc.icache, k, tc.seen)
			})
		}
	}
}
