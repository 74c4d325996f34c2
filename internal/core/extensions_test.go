package core

import (
	"fmt"
	"testing"

	"noctg/internal/amba"
	"noctg/internal/mem"
	"noctg/internal/ocp"
	"noctg/internal/sim"
)

// --- MultiTask (paper §7: OS-scheduled tasks on one processor) ---

// taskProg builds a program that reads addr, idles, and finally writes val
// to addr — enough structure to expose unsafe preemption if it existed.
func taskProg(t *testing.T, addr, val uint32, idle int) *Program {
	t.Helper()
	src := fmt.Sprintf(`MASTER[0,0]
REGISTER addr %#x
REGISTER data %#x
BEGIN
	Read(addr)
	Idle(%d)
	Write(addr, data)
	Idle(%d)
	Write(addr, data)
	Halt
END`, addr, val, 10+idle, 5+idle)
	p, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestMultiTaskCompletesAllTasks(t *testing.T) {
	e := sim.NewEngine(sim.Clock{})
	bus := amba.New(amba.Config{}, e.Cycle)
	slave := mem.NewRAM("ram", 0x1000, 0x1000, 1)
	if err := bus.MapSlave(slave, slave.Range()); err != nil {
		t.Fatal(err)
	}
	progs := []*Program{
		taskProg(t, 0x1000, 0xaaaa, 1),
		taskProg(t, 0x1004, 0xbbbb, 1),
		taskProg(t, 0x1008, 0xcccc, 1),
	}
	mt, err := NewMultiTask(MultiTaskConfig{Timeslice: 10, SwitchPenalty: 5}, progs, bus.NewMasterPort())
	if err != nil {
		t.Fatal(err)
	}
	e.Add(mt)
	e.Add(bus)
	if _, err := e.Run(100_000, func() bool { return mt.Done() && bus.Idle() }); err != nil {
		t.Fatal(err)
	}
	if slave.PeekWord(0x1000) != 0xaaaa || slave.PeekWord(0x1004) != 0xbbbb || slave.PeekWord(0x1008) != 0xcccc {
		t.Fatal("not all tasks' writes landed")
	}
	if mt.Switches == 0 {
		t.Fatal("expected context switches")
	}
}

func TestMultiTaskSwitchPenaltyCosts(t *testing.T) {
	run := func(penalty uint64) uint64 {
		e := sim.NewEngine(sim.Clock{})
		bus := amba.New(amba.Config{}, e.Cycle)
		slave := mem.NewRAM("ram", 0x1000, 0x1000, 1)
		if err := bus.MapSlave(slave, slave.Range()); err != nil {
			t.Fatal(err)
		}
		progs := []*Program{
			taskProg(t, 0x1000, 1, 1),
			taskProg(t, 0x1004, 2, 1),
		}
		mt, err := NewMultiTask(MultiTaskConfig{Timeslice: 8, SwitchPenalty: penalty}, progs, bus.NewMasterPort())
		if err != nil {
			t.Fatal(err)
		}
		e.Add(mt)
		e.Add(bus)
		if _, err := e.Run(100_000, func() bool { return mt.Done() && bus.Idle() }); err != nil {
			t.Fatal(err)
		}
		return mt.HaltCycle()
	}
	if fast, slow := run(1), run(50); slow <= fast {
		t.Fatalf("higher switch penalty should lengthen the run (%d vs %d)", fast, slow)
	}
}

func TestMultiTaskNeverPreemptsMidTransaction(t *testing.T) {
	// With a 1-cycle timeslice every instruction boundary is a switch
	// point; the port discipline (one outstanding transaction) would be
	// violated — and the bus would mis-sequence — if a task were suspended
	// mid-transaction. Completing correctly is the proof.
	e := sim.NewEngine(sim.Clock{})
	bus := amba.New(amba.Config{}, e.Cycle)
	slave := mem.NewRAM("ram", 0x1000, 0x1000, 4) // slow: transactions span slices
	if err := bus.MapSlave(slave, slave.Range()); err != nil {
		t.Fatal(err)
	}
	progs := []*Program{
		taskProg(t, 0x1000, 11, 1),
		taskProg(t, 0x1004, 22, 1),
	}
	mt, err := NewMultiTask(MultiTaskConfig{Timeslice: 1, SwitchPenalty: 2}, progs, bus.NewMasterPort())
	if err != nil {
		t.Fatal(err)
	}
	e.Add(mt)
	e.Add(bus)
	if _, err := e.Run(100_000, func() bool { return mt.Done() && bus.Idle() }); err != nil {
		t.Fatal(err)
	}
	if slave.PeekWord(0x1000) != 11 || slave.PeekWord(0x1004) != 22 {
		t.Fatal("interleaved tasks corrupted each other")
	}
}

func TestMultiTaskIdleTimersRun(t *testing.T) {
	// Task 0 sleeps a long Idle; task 1 does short work. With RunIdleTimers
	// the sleeper's countdown overlaps task 1's slices, so the makespan is
	// close to the Idle length rather than the sum.
	build := func(runTimers bool) uint64 {
		e := sim.NewEngine(sim.Clock{})
		bus := amba.New(amba.Config{}, e.Cycle)
		slave := mem.NewRAM("ram", 0x1000, 0x100, 1)
		if err := bus.MapSlave(slave, slave.Range()); err != nil {
			t.Fatal(err)
		}
		sleeper := mustAssemble(t, "MASTER[0,0]\nBEGIN\nIdle(2000)\nHalt\nEND")
		worker := mustAssemble(t, `MASTER[0,0]
REGISTER addr 0x1000
REGISTER data 9
BEGIN
	Write(addr, data)
	Idle(400)
	Halt
END`)
		mt, err := NewMultiTask(MultiTaskConfig{Timeslice: 50, SwitchPenalty: 2, RunIdleTimers: runTimers},
			[]*Program{sleeper, worker}, bus.NewMasterPort())
		if err != nil {
			t.Fatal(err)
		}
		e.Add(mt)
		e.Add(bus)
		if _, err := e.Run(100_000, func() bool { return mt.Done() && bus.Idle() }); err != nil {
			t.Fatal(err)
		}
		return mt.HaltCycle()
	}
	overlapped, frozen := build(true), build(false)
	if overlapped >= frozen {
		t.Fatalf("overlapping idle timers should shorten the run (%d vs %d)", overlapped, frozen)
	}
}

func TestMultiTaskErrors(t *testing.T) {
	if _, err := NewMultiTask(MultiTaskConfig{}, nil, idlePortStub{}); err == nil {
		t.Fatal("empty task list should fail")
	}
	bad := &Program{Insts: []Inst{{Op: Jump, Imm: 9}}}
	if _, err := NewMultiTask(MultiTaskConfig{}, []*Program{bad}, idlePortStub{}); err == nil {
		t.Fatal("invalid program should fail")
	}
}

type idlePortStub struct{}

func (idlePortStub) TryRequest(*ocp.Request) bool        { return false }
func (idlePortStub) TakeResponse() (*ocp.Response, bool) { return nil, false }
func (idlePortStub) Busy() bool                          { return false }

func TestDevicePreemptibleStates(t *testing.T) {
	p := mustAssemble(t, `MASTER[0,0]
REGISTER addr 0x100
BEGIN
	Idle(5)
	Read(addr)
	Halt
END`)
	var cycle uint64
	port := &fakePort{now: func() uint64 { return cycle }, acceptDelay: 3, respDelay: 5,
		memory: map[uint32]uint32{0x100: 1}}
	d, err := NewDevice(p, port)
	if err != nil {
		t.Fatal(err)
	}
	sawIdle, sawBlocked := false, false
	for ; !d.Done(); cycle++ {
		d.Tick(cycle)
		if d.state == dIdle {
			sawIdle = true
			if !d.Preemptible() {
				t.Fatal("idling device must be preemptible")
			}
		}
		if !d.Preemptible() {
			sawBlocked = true
		}
	}
	if !sawIdle || !sawBlocked {
		t.Fatalf("state coverage: idle=%v blocked=%v", sawIdle, sawBlocked)
	}
}
