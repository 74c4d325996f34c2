package platform

import (
	"testing"

	"noctg/internal/cache"
	"noctg/internal/core"
	"noctg/internal/cpu"
	"noctg/internal/layout"
	"noctg/internal/noc"
	"noctg/internal/ocp"
	"noctg/internal/sim"
)

var cacheCfg = cache.Config{Lines: 16, WordsPerLine: 4}

func armPrograms(t *testing.T, cores int, src string) []*cpu.Program {
	t.Helper()
	progs := make([]*cpu.Program, cores)
	for i := 0; i < cores; i++ {
		p, err := cpu.Assemble(src, layout.PrivBaseFor(i))
		if err != nil {
			t.Fatal(err)
		}
		progs[i] = p
	}
	return progs
}

func TestBuildARMRuns(t *testing.T) {
	progs := armPrograms(t, 2, "ldi r1, 5\nhalt")
	sys, err := BuildARM(Config{Cores: 2}, progs, cacheCfg, cacheCfg)
	if err != nil {
		t.Fatal(err)
	}
	makespan, err := sys.Run(100_000)
	if err != nil {
		t.Fatal(err)
	}
	if makespan == 0 {
		t.Fatal("zero makespan")
	}
	if !sys.Done() {
		t.Fatal("system should be done")
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(Config{Cores: 0}, nil); err == nil {
		t.Fatal("zero cores should fail")
	}
	if _, err := Build(Config{Cores: 1}, nil); err == nil {
		t.Fatal("nil factory should fail")
	}
	if _, err := BuildARM(Config{Cores: 2}, nil, cacheCfg, cacheCfg); err == nil {
		t.Fatal("program count mismatch should fail")
	}
	if _, err := BuildTG(Config{Cores: 2}, nil); err == nil {
		t.Fatal("TG program count mismatch should fail")
	}
}

func TestTraceMonitorsAttached(t *testing.T) {
	progs := armPrograms(t, 1, "ldi r1, 0x08000000\nldi r2, 7\nstr r2, [r1+0]\nhalt")
	sys, err := BuildARM(Config{Cores: 1, Trace: true}, progs, cacheCfg, cacheCfg)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Monitors[0] == nil {
		t.Fatal("monitor missing")
	}
	sys.Monitors[0].Record()
	if _, err := sys.Run(100_000); err != nil {
		t.Fatal(err)
	}
	log := sys.Monitors[0].Log()
	if log.Len() == 0 {
		t.Fatal("no events traced")
	}
	var sawWrite bool
	for i := range log.Len() {
		if e := log.At(i); e.Cmd == ocp.Write && e.Addr == layout.SharedBase {
			sawWrite = true
		}
	}
	if !sawWrite {
		t.Fatal("shared-memory write not traced")
	}
}

func TestPeekAcrossMemories(t *testing.T) {
	progs := armPrograms(t, 2, "halt")
	sys, err := BuildARM(Config{Cores: 2}, progs, cacheCfg, cacheCfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Shared.LoadWords(layout.SharedBase+8, []uint32{42})
	sys.Privs[1].LoadWords(layout.PrivBaseFor(1)+4, []uint32{43})
	if sys.Peek(layout.SharedBase+8) != 42 || sys.Peek(layout.PrivBaseFor(1)+4) != 43 {
		t.Fatal("Peek misrouted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Peek outside memories should panic")
		}
	}()
	sys.Peek(0xdead0000)
}

func TestXPipesPlatformPlacement(t *testing.T) {
	progs := armPrograms(t, 3, "ldi r1, 0x08000000\nldr r2, [r1+0]\nhalt")
	sys, err := BuildARM(Config{Cores: 3, Interconnect: XPipes}, progs, cacheCfg, cacheCfg)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Net == nil || sys.Bus != nil {
		t.Fatal("xpipes platform should use the NoC")
	}
	if _, err := sys.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
}

func TestAutoMeshSizes(t *testing.T) {
	for cores := 1; cores <= 12; cores++ {
		cfg, err := AutoMesh(cores, noc.Config{})
		if err != nil || cfg.Width*cfg.Height < cores*2+3 {
			t.Fatalf("%d cores: mesh %dx%d too small (%v)", cores, cfg.Width, cfg.Height, err)
		}
	}
}

func TestTGPlatformRunsProgram(t *testing.T) {
	src := `MASTER[0,0]
REGISTER addr 0x08000000
REGISTER data 0
BEGIN
	SetRegister(data, 0x1234)
	Write(addr, data)
	Idle(5)
	Halt
END`
	p, err := core.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := BuildTG(Config{Cores: 1}, []*core.Program{p})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(10_000); err != nil {
		t.Fatal(err)
	}
	if sys.Shared.PeekWord(layout.SharedBase) != 0x1234 {
		t.Fatal("TG write did not land in shared memory")
	}
}

func TestClonePlatform(t *testing.T) {
	logs := []ocp.Log{ocp.LogOf([]ocp.Event{
		{Cmd: ocp.Write, Addr: layout.SharedBase + 4, Burst: 1, Assert: 10, Accept: 11, Data: []uint32{9}},
	})}
	sys, err := BuildClone(Config{Cores: 1}, logs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(10_000); err != nil {
		t.Fatal(err)
	}
	if sys.Shared.PeekWord(layout.SharedBase+4) != 9 {
		t.Fatal("clone replay did not land")
	}
}

func TestInterconnectString(t *testing.T) {
	if AMBA.String() != "amba" || XPipes.String() != "xpipes" {
		t.Fatal("interconnect names")
	}
	if Interconnect(9).String() == "" {
		t.Fatal("unknown interconnect name")
	}
}

func TestRunHitsLimit(t *testing.T) {
	// A TG that never halts must produce ErrMaxCycles.
	src := "MASTER[0,0]\nBEGIN\nstart:\nIdle(100)\nJump(start)\nEND"
	p, err := core.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := BuildTG(Config{Cores: 1}, []*core.Program{p})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(1000); err == nil {
		t.Fatal("expected cycle-limit error")
	}
	_ = sim.ErrMaxCycles
}

// tickCounter counts the ticks its master receives.
type tickCounter struct {
	Master
	ticks uint64
}

func (c *tickCounter) Tick(cycle uint64) {
	c.ticks++
	c.Master.Tick(cycle)
}

// TestKernelSkipBuildsEventEngine: the deprecated KernelSkip name builds
// the event kernel, which ticks a halted master at none of the cycles its
// busy neighbour keeps the engine executing; a kernel that ticks every
// device on each executed cycle would tick it at all of them.
func TestKernelSkipBuildsEventEngine(t *testing.T) {
	srcs := []string{
		"MASTER[0,1]\nBEGIN\nHalt\nEND",
		"MASTER[1,1]\nREGISTER addr 0x08000000\nREGISTER data 5\nBEGIN\n" +
			"Write(addr, data)\nRead(addr)\nWrite(addr, data)\nRead(addr)\nHalt\nEND",
	}
	var halted *tickCounter
	sys, err := Build(Config{Cores: 2, Kernel: KernelSkip}, func(s *System, id int, port ocp.MasterPort) Master {
		p, err := core.Assemble(srcs[id])
		if err != nil {
			panic(err)
		}
		d, err := core.NewDevice(p, port)
		if err != nil {
			panic(err)
		}
		if id == 0 {
			halted = &tickCounter{Master: d}
			return halted
		}
		return d
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(10_000); err != nil {
		t.Fatal(err)
	}
	executed := sys.Engine.Cycle() - sys.Engine.SkippedCycles
	if halted.ticks != 1 || executed < 2 {
		t.Fatalf("halted master ticked %d times in %d executed cycles, want once", halted.ticks, executed)
	}
}
