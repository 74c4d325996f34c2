package stochastic

import (
	"testing"

	"noctg/internal/amba"
	"noctg/internal/mem"
	"noctg/internal/ocp"
	"noctg/internal/sim"
)

func cloneRig(t *testing.T) (*sim.Engine, *amba.Bus, *mem.RAM) {
	t.Helper()
	e := sim.NewEngine(sim.Clock{})
	bus := amba.New(amba.Config{}, e.Cycle)
	ram := mem.NewRAM("ram", 0x1000, 0x1000, 1)
	if err := bus.MapSlave(ram, ram.Range()); err != nil {
		t.Fatal(err)
	}
	return e, bus, ram
}

func TestCloneReplaysAtRecordedTimes(t *testing.T) {
	e, bus, ram := cloneRig(t)
	events := []ocp.Event{
		{Cmd: ocp.Write, Addr: 0x1004, Burst: 1, Assert: 10, Accept: 11, Data: []uint32{7}},
		{Cmd: ocp.Read, Addr: 0x1004, Burst: 1, Assert: 30, Accept: 31, Resp: 35,
			HasResp: true, Data: []uint32{7}},
	}
	c := NewClone(0, events, bus.NewMasterPort())
	e.Add(c)
	e.Add(bus)
	if _, err := e.Run(1000, func() bool { return c.Done() && bus.Idle() }); err != nil {
		t.Fatal(err)
	}
	if ram.PeekWord(0x1004) != 7 {
		t.Fatal("clone write lost")
	}
	if c.Drift != 0 {
		t.Fatalf("unexpected drift %d on the reference-like fabric", c.Drift)
	}
	if c.Transactions() != 2 {
		t.Fatalf("transactions = %d", c.Transactions())
	}
}

func TestCloneDriftsOnSlowerFabric(t *testing.T) {
	// Same schedule, but a bus with huge wait states: commands cannot issue
	// on time and drift accumulates — the cloning failure mode of §3.
	e := sim.NewEngine(sim.Clock{})
	bus := amba.New(amba.Config{}, e.Cycle)
	ram := mem.NewRAM("ram", 0x1000, 0x1000, 40) // very slow slave
	if err := bus.MapSlave(ram, ram.Range()); err != nil {
		t.Fatal(err)
	}
	events := []ocp.Event{
		{Cmd: ocp.Read, Addr: 0x1000, Burst: 1, Assert: 0, Accept: 1, Resp: 5, HasResp: true, Data: []uint32{0}},
		{Cmd: ocp.Read, Addr: 0x1004, Burst: 1, Assert: 10, Accept: 11, Resp: 15, HasResp: true, Data: []uint32{0}},
		{Cmd: ocp.Read, Addr: 0x1008, Burst: 1, Assert: 20, Accept: 21, Resp: 25, HasResp: true, Data: []uint32{0}},
	}
	c := NewClone(0, events, bus.NewMasterPort())
	e.Add(c)
	e.Add(bus)
	if _, err := e.Run(10_000, func() bool { return c.Done() && bus.Idle() }); err != nil {
		t.Fatal(err)
	}
	if c.Drift == 0 {
		t.Fatal("clone should drift on a slower fabric")
	}
}

func TestCloneIgnoresResponses(t *testing.T) {
	// The clone must not react: a semaphore that stays held does not stall
	// the replay (it just issues the recorded number of polls).
	e := sim.NewEngine(sim.Clock{})
	bus := amba.New(amba.Config{}, e.Cycle)
	sem := mem.NewSemBank("sem", 0x9000, 1, 1)
	if err := bus.MapSlave(sem, sem.Range()); err != nil {
		t.Fatal(err)
	}
	// Lock the semaphore so every poll fails.
	sem.Perform(&ocp.Request{Cmd: ocp.Read, Addr: 0x9000, Burst: 1})
	events := []ocp.Event{
		{Cmd: ocp.Read, Addr: 0x9000, Burst: 1, Assert: 0, Accept: 1, Resp: 4, HasResp: true, Data: []uint32{1}},
		{Cmd: ocp.Write, Addr: 0x9000, Burst: 1, Assert: 10, Accept: 11, Data: []uint32{1}},
	}
	c := NewClone(0, events, bus.NewMasterPort())
	e.Add(c)
	e.Add(bus)
	if _, err := e.Run(1000, func() bool { return c.Done() && bus.Idle() }); err != nil {
		t.Fatal(err)
	}
	// It finished even though the acquire "failed" — no reactivity.
	if !c.Done() {
		t.Fatal("clone should complete regardless of semaphore state")
	}
}

func TestCloneEmpty(t *testing.T) {
	e, bus, _ := cloneRig(t)
	c := NewClone(0, nil, bus.NewMasterPort())
	e.Add(c)
	e.Add(bus)
	if _, err := e.Run(100, c.Done); err != nil {
		t.Fatal(err)
	}
	if c.HaltCycle() == 0 && !c.Done() {
		t.Fatal("empty clone should halt immediately")
	}
	if c.Name() != "clone0" {
		t.Fatal("name")
	}
}
