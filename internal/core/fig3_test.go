package core

import (
	"strings"
	"testing"

	"noctg/internal/ocp"
	"noctg/internal/sim"
	"noctg/internal/trace"
)

// TestFig3GoldenTranslation feeds the translator the paper's Figure 3(a)
// trace — transliterated to cycles at the paper's 5 ns clock, with
// acceptance times added — and checks that the output program has the
// structure of Figure 3(b): the initial Idle(11) wait, the RD/WR/RD
// sequence with register set-up between commands, and the semaphore
// polling collapsed into a Semchk loop guarded by `If rdreg != tempreg`.
func TestFig3GoldenTranslation(t *testing.T) {
	clk := sim.DefaultClock
	cy := clk.Cycles
	evs := []ocp.Event{
		// ; Simple RD/WR/WRNP
		// RD 0x00000104 @55ns / Resp Data 0x088000f0 @75ns
		{Cmd: ocp.Read, Addr: 0x104, Burst: 1,
			Assert: cy(55), Accept: cy(55) + 1, Resp: cy(75), HasResp: true, Data: []uint32{0x088000f0}},
		// WR 0x00000020 0x00000111 @90ns
		{Cmd: ocp.Write, Addr: 0x20, Burst: 1,
			Assert: cy(90), Accept: cy(90) + 1, Data: []uint32{0x111}},
		// RD 0x00000031 @140ns / Resp Data 0x00002236 @165ns
		{Cmd: ocp.Read, Addr: 0x30, Burst: 1, // word aligned (paper prints 0x31)
			Assert: cy(140), Accept: cy(140) + 1, Resp: cy(165), HasResp: true, Data: []uint32{0x2236}},
		// ; polling a semaphore!!
		// RD 0x000000ff @210ns -> 0 / @285 -> 0 / @305 -> 1
		{Cmd: ocp.Read, Addr: 0xf8, Burst: 1, // word aligned (paper prints 0xff)
			Assert: cy(210), Accept: cy(210) + 1, Resp: cy(270), HasResp: true, Data: []uint32{0}},
		{Cmd: ocp.Read, Addr: 0xf8, Burst: 1,
			Assert: cy(285), Accept: cy(285) + 1, Resp: cy(310), HasResp: true, Data: []uint32{0}},
		{Cmd: ocp.Read, Addr: 0xf8, Burst: 1,
			Assert: cy(325), Accept: cy(325) + 1, Resp: cy(340), HasResp: true, Data: []uint32{1}},
	}
	tr := trace.New(0, clk, ocp.LogOf(evs))
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	prog, stats, err := Translate(tr, TranslateConfig{
		PollRanges:     []PollRange{{Range: ocp.AddrRange{Base: 0xf8, Size: 4}}},
		RecognizePolls: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Structure: SetRegister(addr,0x104), Idle(10), Read — so the first
	// read asserts on cycle 11, the paper's "no instruction to perform
	// until the 11th (55/5) cycle".
	want := []struct {
		op  Op
		imm uint32
	}{
		{SetRegister, 0x104}, // addr
		{Idle, 10},
		{Read, 0},
		{SetRegister, 0x20},  // addr
		{SetRegister, 0x111}, // data
		{Write, 0},
		{SetRegister, 0x30}, // addr
		{Idle, 0},           // remaining gap before second read
		{Read, 0},
		{SetRegister, 0xf8}, // semaphore address
		{SetRegister, 1},    // tempreg = unblocked value
	}
	if len(prog.Insts) < len(want) {
		text, _ := tgpText(prog)
		t.Fatalf("program too short:\n%s", text)
	}
	for i, w := range want {
		in := prog.Insts[i]
		if in.Op != w.op {
			text, _ := tgpText(prog)
			t.Fatalf("inst %d is %v, want %v:\n%s", i, in.Op, w.op, text)
		}
		if w.op == SetRegister && in.Imm != w.imm {
			t.Fatalf("inst %d sets %#x, want %#x", i, in.Imm, w.imm)
		}
		if i == 1 && in.Imm != w.imm {
			t.Fatalf("initial idle = %d, want %d (first command on cycle 11)", in.Imm, w.imm)
		}
	}
	// The three polls collapse into one Semchk loop.
	if stats.PollLoops != 1 || stats.PollReadsCollapsed != 2 {
		t.Fatalf("poll stats %+v", stats)
	}
	text, err := tgpText(prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"Semchk0:", "If rdreg != tempreg then Semchk0", "Halt"} {
		if !strings.Contains(text, frag) {
			t.Fatalf("program missing %q:\n%s", frag, text)
		}
	}
	// And the whole thing must replay: run it against the recorded
	// latency profile and confirm the semaphore loop exits on the value 1.
	var cycle uint64
	port := &pollPort{now: func() uint64 { return cycle }, grantOn: 3}
	d, err := NewDevice(prog, port)
	if err != nil {
		t.Fatal(err)
	}
	for ; !d.Done() && cycle < 10_000; cycle++ {
		d.Tick(cycle)
	}
	if !d.Done() {
		t.Fatal("Fig 3 program did not run to completion")
	}
	if d.regs[RdReg] != 1 {
		t.Fatalf("rdreg = %d after semaphore grant, want 1", d.regs[RdReg])
	}
}

// TestTranslateDeterminism: translating the same trace twice must yield
// byte-identical programs (the cross-interconnect experiment's local half).
func TestTranslateDeterminism(t *testing.T) {
	evs := []ocp.Event{
		{Cmd: ocp.Read, Addr: 0x104, Burst: 1, Assert: 11, Accept: 12, Resp: 15, HasResp: true, Data: []uint32{1}},
		{Cmd: ocp.Write, Addr: 0x20, Burst: 1, Assert: 22, Accept: 23, Data: []uint32{2}},
		{Cmd: ocp.BurstRead, Addr: 0x40, Burst: 4, Assert: 30, Accept: 31, Resp: 40, HasResp: true, Data: []uint32{0, 0, 0, 0}},
	}
	cfg := TranslateConfig{RecognizePolls: true}
	p1, _, err := Translate(trace.New(0, sim.DefaultClock, ocp.LogOf(evs)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	p2, _, err := Translate(trace.New(0, sim.DefaultClock, ocp.LogOf(evs)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t1, _ := tgpText(p1)
	t2, _ := tgpText(p2)
	if t1 != t2 {
		t.Fatal("translation is not deterministic")
	}
}
