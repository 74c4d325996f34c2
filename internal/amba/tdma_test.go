package amba

import (
	"testing"

	"noctg/internal/ocp"
	"noctg/internal/simtest"
)

func TestTDMAGrantsOnlyInSlot(t *testing.T) {
	spam := func() []simtest.Step {
		s := make([]simtest.Step, 6)
		for i := range s {
			s[i] = simtest.Step{Req: ocp.Request{Cmd: ocp.Write, Addr: 0x1000, Burst: 1, Data: []uint32{1}}}
		}
		return s
	}
	e, bus, ms, _ := rig(t, Config{Arbitration: TDMA, SlotCycles: 8}, spam(), spam())
	runAll(t, e, bus, ms, 10_000)
	// Every acceptance must fall in the accepting master's slot. The grant
	// happens on the bus tick before acceptance, so check the grant cycle.
	for id, m := range ms {
		for _, acc := range m.AcceptCycles {
			grant := acc - 1
			owner := int(grant/8) % 2
			if owner != id {
				t.Fatalf("master %d accepted at %d (grant %d) in master %d's slot", id, acc, grant, owner)
			}
		}
	}
	if bus.Grants[0] == 0 || bus.Grants[1] == 0 {
		t.Fatal("both masters must progress under TDMA")
	}
}

func TestTDMAIsolatesBandwidth(t *testing.T) {
	// A spamming master cannot delay the other's worst-case wait beyond
	// one TDMA frame (bounded latency — the point of TDMA).
	spam := make([]simtest.Step, 40)
	for i := range spam {
		spam[i] = simtest.Step{Req: ocp.Request{Cmd: ocp.Write, Addr: 0x1000, Burst: 1, Data: []uint32{1}}}
	}
	polite := []simtest.Step{{Gap: 13, Req: ocp.Request{Cmd: ocp.Read, Addr: 0x1004, Burst: 1}}}
	e, bus, ms, _ := rig(t, Config{Arbitration: TDMA, SlotCycles: 8}, spam, polite)
	runAll(t, e, bus, ms, 10_000)
	wait := ms[1].AcceptCycles[0] - ms[1].AssertCycles[0]
	if wait > 2*8+2 {
		t.Fatalf("TDMA wait %d exceeds one frame bound", wait)
	}
}

func TestTDMAIdleSlotsWaste(t *testing.T) {
	// With only master 0 active, TDMA wastes master 1's slots: the same
	// workload takes longer than under round-robin.
	work := func() []simtest.Step {
		s := make([]simtest.Step, 20)
		for i := range s {
			s[i] = simtest.Step{Req: ocp.Request{Cmd: ocp.Read, Addr: 0x1000, Burst: 1}}
		}
		return s
	}
	span := func(pol Policy) uint64 {
		e, bus, ms, _ := rig(t, Config{Arbitration: pol, SlotCycles: 8}, work(), nil)
		runAll(t, e, bus, ms, 100_000)
		return e.Cycle()
	}
	if tdma, rr := span(TDMA), span(RoundRobin); tdma <= rr {
		t.Fatalf("TDMA (%d) should be slower than round-robin (%d) with idle slots", tdma, rr)
	}
}
