package cpu_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"testing"

	"noctg/internal/cache"
	"noctg/internal/cpu"
	"noctg/internal/exp"
	"noctg/internal/platform"
	"noctg/internal/prog"
	"noctg/internal/trace"
)

// armObservation runs spec's traced reference on the default platform
// with the given I-cache, its cores running ahead a clock at a time when
// perClock is set, and renders everything the run exposes: makespan,
// engine cycle, bus busy and wait cycles, each core's counters, halt
// cycle, PC and registers, its caches' counters, and each master's .trc
// sha256.
func armObservation(t *testing.T, spec *prog.Spec, icache cache.Config, perClock bool) string {
	t.Helper()
	progs, err := spec.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	opt := exp.DefaultOptions()
	cfg := opt.Platform
	cfg.Cores, cfg.Trace = spec.Cores, true
	sys, err := platform.BuildARM(cfg, progs, icache, opt.DCache)
	if err != nil {
		t.Fatal(err)
	}
	cores := make([]*cpu.Core, len(sys.Masters))
	for i, m := range sys.Masters {
		sys.Monitors[i].Record()
		cores[i] = m.(interface{ CPU() *cpu.Core }).CPU()
		if perClock {
			cores[i].StepPerClock()
		}
	}
	makespan, err := sys.Run(spec.MaxCycles)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "makespan %d cycle %d busy %d wait %v\n", makespan, sys.Engine.Cycle(), sys.Bus.BusyCycles(), sys.Bus.WaitCycles())
	for i, c := range cores {
		regs := make([]uint32, 16)
		for r := range regs {
			regs[r] = c.Reg(r)
		}
		ic, dc := c.MemUnit().ICache(), c.MemUnit().DCache()
		var trc bytes.Buffer
		if err := trace.New(i, sys.Engine.Clock(), sys.Monitors[i].Log()).Write(&trc); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "core %d: inst %d stall %d halt %d faulted %v pc %#x regs %x icache %d/%d/%d dcache %d/%d/%d trc %x\n",
			i, c.InstRet, c.StallCycles, c.HaltCycle(), c.Faulted(), c.PC(), regs,
			ic.Hits, ic.Misses, ic.Refills, dc.Hits, dc.Misses, dc.Refills, sha256.Sum256(trc.Bytes()))
	}
	return b.String()
}

// TestARMWholeInstructionMatchesPerClock: on every DefaultSizes Table 2
// row, and I-caches of 1, 2 and 4 ways with 1-, 2-, 4- and 8-word lines,
// the reference whose cores run ahead whole instructions computes exactly
// what per-clock run-ahead computes. The kernel differential cannot see
// this, because the core runs ahead on every kernel. Each row runs one
// I-cache, the twelve rotating over the rows so that every one runs;
// NOCTG_AXES=full runs every row on every I-cache.
func TestARMWholeInstructionMatchesPerClock(t *testing.T) {
	var icaches []cache.Config
	for _, ways := range []int{1, 2, 4} {
		for _, words := range []int{1, 2, 4, 8} {
			icaches = append(icaches, cache.Config{Lines: 64, WordsPerLine: words, Ways: ways})
		}
	}
	full := os.Getenv("NOCTG_AXES") == "full"
	for i, spec := range exp.DefaultSizes().Specs() {
		for j, icache := range icaches {
			if !full && j != i%len(icaches) {
				continue
			}
			name := fmt.Sprintf("%s/%dP/ways=%d/words=%d", spec.Name, spec.Cores, icache.Ways, icache.WordsPerLine)
			t.Run(name, func(t *testing.T) {
				whole, clock := armObservation(t, spec, icache, false), armObservation(t, spec, icache, true)
				if whole != clock {
					t.Fatalf("whole instructions:\n%s\nper clock:\n%s", whole, clock)
				}
			})
		}
	}
}
