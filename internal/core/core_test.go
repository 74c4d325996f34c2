package core

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"noctg/internal/ocp"
	"noctg/internal/sim"
	"noctg/internal/trace"
)

// tgpText renders p's .tgp text through Format.
func tgpText(p *Program) (string, error) {
	var b strings.Builder
	err := p.Format(&b)
	return b.String(), err
}

func TestInstEncodeDecodeRoundTripProperty(t *testing.T) {
	f := func(op, rd, ra, rb uint8, imm uint32) bool {
		in := Inst{
			Op: Op(op % uint8(opCount)),
			Rd: rd % NumRegs, Ra: ra % NumRegs, Rb: rb % NumRegs,
			Imm: imm,
		}
		if in.Op == If {
			in.Rd = 0 // If carries its condition in the Rd byte
			in.Cnd = Cond(rd % uint8(condCount))
		}
		out, ok := DecodeInst(in.Encode())
		return ok && out == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, ok := DecodeInst([8]byte{byte(opCount), 0, 0, 0, 0, 0, 0, 0}); ok {
		t.Fatal("invalid opcode decoded")
	}
	if _, ok := DecodeInst([8]byte{byte(Read), 16, 0, 0, 0, 0, 0, 0}); ok {
		t.Fatal("register 16 decoded")
	}
	if _, ok := DecodeInst([8]byte{byte(If), byte(condCount), 0, 0, 0, 0, 0, 0}); ok {
		t.Fatal("invalid condition decoded")
	}
}

func TestCondEval(t *testing.T) {
	cases := []struct {
		c    Cond
		a, b uint32
		want bool
	}{
		{EQ, 5, 5, true}, {EQ, 5, 6, false},
		{NE, 5, 6, true}, {NE, 5, 5, false},
		{LT, 1, 2, true}, {LT, 2, 1, false}, {LT, 0xffffffff, 1, false},
		{GE, 2, 2, true}, {GE, 1, 2, false},
	}
	for _, c := range cases {
		if got := c.c.Eval(c.a, c.b); got != c.want {
			t.Errorf("%d %s %d = %v, want %v", c.a, c.c, c.b, got, c.want)
		}
	}
}

// fig3Program builds a paper-style program by hand.
func fig3Program(t *testing.T) *Program {
	t.Helper()
	src := `
; Master Core
MASTER[0,0]
REGISTER addr 0x00000104
REGISTER data 0x00000000
REGISTER tempreg 0x00000001
BEGIN
start:
	Idle(11)
	Read(addr)
	SetRegister(addr, 0x00000020)
	SetRegister(data, 0x00000111)
	Idle(1)
	Write(addr, data)
	SetRegister(addr, 0x000000ff)
Semchk:
	Read(addr)
	If rdreg != tempreg then Semchk
	Halt
END`
	p, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestTgpAssembleBasics(t *testing.T) {
	p := fig3Program(t)
	if p.MasterID != 0 || len(p.RegNames) != 4 {
		t.Fatalf("header: master=%d regs=%v", p.MasterID, p.RegNames)
	}
	if p.RegInit[1] != 0x104 || p.RegInit[3] != 1 {
		t.Fatalf("register inits %v", p.RegInit)
	}
	if p.Labels["start"] != 0 {
		t.Fatal("start label")
	}
	semchk := p.Labels["Semchk"]
	ifInst := p.Insts[semchk+1]
	if ifInst.Op != If || ifInst.Cnd != NE || ifInst.Imm != uint32(semchk) {
		t.Fatalf("If instruction wrong: %+v", ifInst)
	}
	if p.Insts[len(p.Insts)-1].Op != Halt {
		t.Fatal("program should end in Halt")
	}
}

func TestTgpFormatRoundTrip(t *testing.T) {
	p := fig3Program(t)
	text, err := tgpText(p)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Assemble(text)
	if err != nil {
		t.Fatalf("reassemble: %v\n%s", err, text)
	}
	if len(p2.Insts) != len(p.Insts) {
		t.Fatalf("instruction count changed %d → %d", len(p.Insts), len(p2.Insts))
	}
	for i := range p.Insts {
		if p.Insts[i] != p2.Insts[i] {
			t.Fatalf("inst %d changed: %+v vs %+v", i, p.Insts[i], p2.Insts[i])
		}
	}
	// Formatting again must be a fixed point.
	text2, err := tgpText(p2)
	if err != nil {
		t.Fatal(err)
	}
	if text != text2 {
		t.Fatalf("Format not canonical:\n%s\nvs\n%s", text, text2)
	}
}

func TestTgpErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"no begin", "MASTER[0,0]\nHalt\nEND"},
		{"undeclared reg", "MASTER[0,0]\nBEGIN\nRead(addr)\nEND"},
		{"undefined label", "MASTER[0,0]\nBEGIN\nJump(nowhere)\nEND"},
		{"dup label", "MASTER[0,0]\nBEGIN\na:\na:\nHalt\nEND"},
		{"dup register", "MASTER[0,0]\nREGISTER x 0\nREGISTER x 1\nBEGIN\nHalt\nEND"},
		{"bad master", "MASTER[zz]\nBEGIN\nHalt\nEND"},
		{"bad if", "MASTER[0,0]\nBEGIN\nIf rdreg ~ rdreg then x\nHalt\nx:\nEND"},
		{"unknown inst", "MASTER[0,0]\nBEGIN\nFrobnicate(1)\nEND"},
		{"reg overflow", "MASTER[0,0]\n" + strings.Repeat("REGISTER r 0\n", 1) +
			func() string {
				var b strings.Builder
				for i := 0; i < NumRegs; i++ {
					b.WriteString("REGISTER x")
					b.WriteByte(byte('a' + i))
					b.WriteString(" 0\n")
				}
				return b.String()
			}() + "BEGIN\nHalt\nEND"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Assemble(c.src); err == nil {
				t.Fatalf("expected error for:\n%s", c.src)
			}
		})
	}
}

func TestBinRoundTrip(t *testing.T) {
	p := fig3Program(t)
	var buf bytes.Buffer
	if err := p.WriteBin(&buf); err != nil {
		t.Fatal(err)
	}
	p2, err := ReadBin(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if p2.MasterID != p.MasterID || len(p2.Insts) != len(p.Insts) {
		t.Fatal("bin header mismatch")
	}
	for i := range p.Insts {
		if p.Insts[i] != p2.Insts[i] {
			t.Fatalf("inst %d: %+v vs %+v", i, p.Insts[i], p2.Insts[i])
		}
	}
	for i := range p.RegInit {
		if p.RegInit[i] != p2.RegInit[i] {
			t.Fatal("register inits lost")
		}
	}
}

func TestBinRejectsCorrupt(t *testing.T) {
	p := fig3Program(t)
	var buf bytes.Buffer
	if err := p.WriteBin(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := ReadBin(bytes.NewReader(data[:10])); err == nil {
		t.Fatal("truncated image accepted")
	}
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := ReadBin(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestProgramValidate(t *testing.T) {
	p := NewProgram(0, 0)
	p.Insts = []Inst{{Op: Jump, Imm: 99}}
	if err := p.Validate(); err == nil {
		t.Fatal("out-of-range jump accepted")
	}
	p.Insts = []Inst{{Op: BurstRead, Imm: 0}}
	if err := p.Validate(); err == nil {
		t.Fatal("zero burst accepted")
	}
	p.Insts = []Inst{{Op: Read, Ra: 9}}
	if err := p.Validate(); err == nil {
		t.Fatal("undeclared register accepted")
	}
}

// fakePort is a deterministic MasterPort: accepts requests after a fixed
// number of tries, responds after a fixed latency.
type fakePort struct {
	acceptDelay int // TryRequest calls rejected before accepting
	respDelay   uint64
	now         func() uint64

	tries   int
	respAt  uint64
	pending bool
	val     uint32
	log     []ocp.Event
	memory  map[uint32]uint32
}

func (p *fakePort) TryRequest(req *ocp.Request) bool {
	p.tries++
	if p.tries <= p.acceptDelay {
		return false
	}
	p.tries = 0
	ev := ocp.Event{Cmd: req.Cmd, Addr: req.Addr, Burst: req.Burst, Assert: p.now(), Accept: p.now()}
	if req.Cmd.IsWrite() {
		ev.Data = append([]uint32(nil), req.Data...)
		if p.memory != nil {
			p.memory[req.Addr] = req.Data[0]
		}
	} else {
		p.pending = true
		p.respAt = p.now() + p.respDelay
		if p.memory != nil {
			p.val = p.memory[req.Addr]
		}
	}
	p.log = append(p.log, ev)
	return true
}

func (p *fakePort) TakeResponse() (*ocp.Response, bool) {
	if !p.pending || p.now() < p.respAt {
		return nil, false
	}
	p.pending = false
	return &ocp.Response{Data: []uint32{p.val}}, true
}

func (p *fakePort) Busy() bool { return p.pending }

// runDevice ticks a device until halt, returning it.
func runDevice(t *testing.T, p *Program, port ocp.MasterPort, max uint64) (*Device, uint64) {
	t.Helper()
	var cycle uint64
	d, err := NewDevice(p, port)
	if err != nil {
		t.Fatal(err)
	}
	for cycle = 0; cycle < max; cycle++ {
		d.Tick(cycle)
		if d.Done() {
			return d, cycle
		}
	}
	t.Fatalf("device did not halt in %d cycles (pc=%d)", max, d.pc)
	return nil, 0
}

func mustAssemble(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDeviceCycleCosts(t *testing.T) {
	// SetRegister ×2, Idle(5), Halt — Halt executes on cycle 2+5 = 7.
	p := mustAssemble(t, `MASTER[0,0]
REGISTER a 0
BEGIN
	SetRegister(a, 1)
	SetRegister(a, 2)
	Idle(5)
	Halt
END`)
	var cycle uint64
	port := &fakePort{now: func() uint64 { return cycle }}
	d, err := NewDevice(p, port)
	if err != nil {
		t.Fatal(err)
	}
	for ; !d.Done(); cycle++ {
		d.Tick(cycle)
	}
	if d.HaltCycle() != 7 {
		t.Fatalf("halt at %d, want 7", d.HaltCycle())
	}
}

func TestDeviceIdleOne(t *testing.T) {
	p := mustAssemble(t, "MASTER[0,0]\nBEGIN\nIdle(1)\nHalt\nEND")
	var cycle uint64
	port := &fakePort{now: func() uint64 { return cycle }}
	d, _ := NewDevice(p, port)
	for ; !d.Done(); cycle++ {
		d.Tick(cycle)
	}
	if d.HaltCycle() != 1 {
		t.Fatalf("Idle(1) should cost one cycle; halt at %d", d.HaltCycle())
	}
}

func TestDeviceReadWriteTiming(t *testing.T) {
	// Read asserts on its first cycle; the response arrives respDelay
	// cycles after acceptance; the next instruction runs the cycle after.
	p := mustAssemble(t, `MASTER[0,0]
REGISTER addr 0x100
BEGIN
	Read(addr)
	Halt
END`)
	var cycle uint64
	port := &fakePort{now: func() uint64 { return cycle }, acceptDelay: 1, respDelay: 3,
		memory: map[uint32]uint32{0x100: 42}}
	d, _ := NewDevice(p, port)
	for ; !d.Done(); cycle++ {
		d.Tick(cycle)
	}
	// Assert cycle 0, accept cycle 1 (fakePort logs at acceptance),
	// resp cycle 4, halt cycle 5.
	if port.log[0].Assert != 1 {
		t.Fatalf("accept logged at %d, want 1", port.log[0].Assert)
	}
	if d.HaltCycle() != 5 {
		t.Fatalf("halt at %d, want 5", d.HaltCycle())
	}
	if d.regs[RdReg] != 42 {
		t.Fatalf("rdreg = %d", d.regs[RdReg])
	}
}

func TestDeviceBurstWriteReplaysDataRegister(t *testing.T) {
	p := mustAssemble(t, `MASTER[0,0]
REGISTER addr 0x200
REGISTER data 0
BEGIN
	SetRegister(data, 0x7)
	BurstWrite(addr, data, 4)
	Halt
END`)
	var cycle uint64
	port := &fakePort{now: func() uint64 { return cycle }}
	d, _ := NewDevice(p, port)
	for ; !d.Done(); cycle++ {
		d.Tick(cycle)
	}
	ev := port.log[0]
	if ev.Cmd != ocp.BurstWrite || ev.Burst != 4 || len(ev.Data) != 4 {
		t.Fatalf("burst write event %+v", ev)
	}
	for _, v := range ev.Data {
		if v != 7 {
			t.Fatalf("burst payload %v", ev.Data)
		}
	}
	if d.Transactions != 1 {
		t.Fatalf("transactions = %d", d.Transactions)
	}
}

func TestDeviceIfLoopAndJump(t *testing.T) {
	// Count down from 3 using a register-parameterised Idle.
	p := mustAssemble(t, `MASTER[0,0]
REGISTER n 3
REGISTER zero 0
REGISTER one 1
BEGIN
loop:
	Idle(n)
	SetRegister(n, 1)
	If n != zero then done
	Jump(loop)
done:
	Halt
END`)
	var cycle uint64
	port := &fakePort{now: func() uint64 { return cycle }}
	d, _ := NewDevice(p, port)
	for ; !d.Done(); cycle++ {
		d.Tick(cycle)
	}
	// Idle(3) occupies cycles 0–2, SetRegister cycle 3, If (taken) cycle 4,
	// Halt executes on cycle 5.
	if d.HaltCycle() != 5 {
		t.Fatalf("halt at %d, want 5", d.HaltCycle())
	}
}

func TestDeviceSemaphorePolling(t *testing.T) {
	// A fake semaphore: first two reads return 0, third returns 1.
	p := mustAssemble(t, `MASTER[0,0]
REGISTER addr 0x900
REGISTER tempreg 1
BEGIN
Semchk:
	Read(addr)
	If rdreg != tempreg then Semchk
	Halt
END`)
	var cycle uint64
	reads := 0
	port := &pollPort{now: func() uint64 { return cycle }, grantOn: 3}
	d, _ := NewDevice(p, port)
	for ; !d.Done() && cycle < 1000; cycle++ {
		d.Tick(cycle)
	}
	reads = port.reads
	if !d.Done() {
		t.Fatal("poll loop never exited")
	}
	if reads != 3 {
		t.Fatalf("device polled %d times, want 3", reads)
	}
}

// pollPort returns 0 until the grantOn-th read, then 1.
type pollPort struct {
	now     func() uint64
	grantOn int
	reads   int
	pending bool
	respAt  uint64
	val     uint32
}

func (p *pollPort) TryRequest(req *ocp.Request) bool {
	if req.Cmd == ocp.Read {
		p.reads++
		p.val = 0
		if p.reads >= p.grantOn {
			p.val = 1
		}
		p.pending = true
		p.respAt = p.now() + 2
	}
	return true
}

func (p *pollPort) TakeResponse() (*ocp.Response, bool) {
	if !p.pending || p.now() < p.respAt {
		return nil, false
	}
	p.pending = false
	return &ocp.Response{Data: []uint32{p.val}}, true
}

func (p *pollPort) Busy() bool { return p.pending }

// --- translator unit tests ---

func mkTrace(events []ocp.Event) *trace.Trace {
	return trace.New(0, sim.DefaultClock, ocp.LogOf(events))
}

func TestTranslateSimpleGapArithmetic(t *testing.T) {
	// RD at cycle 11 (paper: first event at 55ns), resp 15; WR at 18.
	tr := mkTrace([]ocp.Event{
		{Cmd: ocp.Read, Addr: 0x104, Burst: 1, Assert: 11, Accept: 12, Resp: 15,
			HasResp: true, Data: []uint32{0xf0}},
		{Cmd: ocp.Write, Addr: 0x20, Burst: 1, Assert: 18, Accept: 19, Data: []uint32{0x111}},
	})
	p, stats, err := Translate(tr, TranslateConfig{RecognizePolls: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Events != 2 {
		t.Fatal("stats.Events")
	}
	// Expected stream: SetRegister(addr,0x104); Idle(10); Read;
	// SetRegister(addr,0x20); SetRegister(data,0x111); Read executes at
	// 1+10 = 11 ✓; after resp at 15, next tick 16: two SetRegisters (16,17)
	// then Write at 18 → no Idle needed.
	want := []Op{SetRegister, Idle, Read, SetRegister, SetRegister, Write, Halt}
	if len(p.Insts) != len(want) {
		text, _ := tgpText(p)
		t.Fatalf("got %d instructions:\n%s", len(p.Insts), text)
	}
	for i, op := range want {
		if p.Insts[i].Op != op {
			text, _ := tgpText(p)
			t.Fatalf("inst %d is %v, want %v:\n%s", i, p.Insts[i].Op, op, text)
		}
	}
	if p.Insts[1].Imm != 10 {
		t.Fatalf("initial idle = %d, want 10", p.Insts[1].Imm)
	}
	if stats.ClampedCycles != 0 {
		t.Fatalf("clamped %d cycles", stats.ClampedCycles)
	}
}

func TestTranslateSetRegisterElision(t *testing.T) {
	// Two writes of the same value to the same address: the second needs no
	// SetRegister at all.
	tr := mkTrace([]ocp.Event{
		{Cmd: ocp.Write, Addr: 0x20, Burst: 1, Assert: 5, Accept: 6, Data: []uint32{1}},
		{Cmd: ocp.Write, Addr: 0x20, Burst: 1, Assert: 10, Accept: 11, Data: []uint32{1}},
	})
	p, _, err := Translate(tr, TranslateConfig{RecognizePolls: true})
	if err != nil {
		t.Fatal(err)
	}
	var setregs int
	for _, in := range p.Insts {
		if in.Op == SetRegister {
			setregs++
		}
	}
	if setregs != 2 { // addr + data once only
		text, _ := tgpText(p)
		t.Fatalf("want 2 SetRegisters, got %d:\n%s", setregs, text)
	}
}

func TestTranslateClampsTightGaps(t *testing.T) {
	// Back-to-back writes to different addresses 1 cycle apart: the
	// SetRegister overhead cannot fit.
	tr := mkTrace([]ocp.Event{
		{Cmd: ocp.Write, Addr: 0x20, Burst: 1, Assert: 0, Accept: 1, Data: []uint32{1}},
		{Cmd: ocp.Write, Addr: 0x30, Burst: 1, Assert: 2, Accept: 3, Data: []uint32{2}},
	})
	_, stats, err := Translate(tr, TranslateConfig{RecognizePolls: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ClampedCycles == 0 {
		t.Fatal("expected clamped cycles")
	}
}

func TestTranslateBursts(t *testing.T) {
	tr := mkTrace([]ocp.Event{
		{Cmd: ocp.BurstRead, Addr: 0x1000, Burst: 4, Assert: 3, Accept: 4, Resp: 12,
			HasResp: true, Data: []uint32{1, 2, 3, 4}},
		{Cmd: ocp.BurstWrite, Addr: 0x2000, Burst: 2, Assert: 20, Accept: 25, Data: []uint32{9, 9}},
	})
	p, _, err := Translate(tr, TranslateConfig{RecognizePolls: true})
	if err != nil {
		t.Fatal(err)
	}
	var brd, bwr *Inst
	for i := range p.Insts {
		switch p.Insts[i].Op {
		case BurstRead:
			brd = &p.Insts[i]
		case BurstWrite:
			bwr = &p.Insts[i]
		}
	}
	if brd == nil || brd.Imm != 4 {
		t.Fatal("burst read not translated")
	}
	if bwr == nil || bwr.Imm != 2 {
		t.Fatal("burst write not translated")
	}
}

func TestTranslatePollCollapse(t *testing.T) {
	sem := ocp.AddrRange{Base: 0x900, Size: 16}
	// Three failed polls then success, constant poll period 8.
	evs := []ocp.Event{}
	var tick uint64 = 5
	for i := 0; i < 4; i++ {
		v := uint32(0)
		if i == 3 {
			v = 1
		}
		evs = append(evs, ocp.Event{Cmd: ocp.Read, Addr: 0x900, Burst: 1,
			Assert: tick, Accept: tick + 1, Resp: tick + 4, HasResp: true, Data: []uint32{v}})
		tick += 4 + 8 // resp + pollgap
	}
	tr := mkTrace(evs)
	p, stats, err := Translate(tr, TranslateConfig{PollRanges: []PollRange{{Range: sem}}, RecognizePolls: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.PollLoops != 1 || stats.PollReadsCollapsed != 3 {
		t.Fatalf("stats: %+v", stats)
	}
	// One Read only, inside a loop ending in If NE back to it.
	var reads, ifs int
	var idleInner uint64
	for i, in := range p.Insts {
		switch in.Op {
		case Read:
			reads++
		case If:
			ifs++
			if in.Cnd != NE {
				t.Fatal("poll loop must use !=")
			}
			if p.Insts[int(in.Imm)].Op != Read {
				t.Fatal("If must target the Read")
			}
			if p.Insts[i-1].Op == Idle {
				idleInner = uint64(p.Insts[i-1].Imm)
			}
		}
	}
	if reads != 1 || ifs != 1 {
		text, _ := tgpText(p)
		t.Fatalf("loop shape wrong (%d reads, %d ifs):\n%s", reads, ifs, text)
	}
	// Poll gap 8 → inner idle 6.
	if idleInner != 6 {
		t.Fatalf("inner idle = %d, want 6", idleInner)
	}
	// tempreg must be loaded with the success value 1.
	var tempSet bool
	for _, in := range p.Insts {
		if in.Op == SetRegister && p.RegNames[in.Rd] == "tempreg" && in.Imm == 1 {
			tempSet = true
		}
	}
	if !tempSet {
		t.Fatal("tempreg not set to success value")
	}
}

func TestTranslateSinglePollStillLoops(t *testing.T) {
	// A first-try semaphore acquire must still become a loop — on a slower
	// interconnect the TG may need to re-poll (the paper's M2 scenario).
	sem := ocp.AddrRange{Base: 0x900, Size: 16}
	tr := mkTrace([]ocp.Event{
		{Cmd: ocp.Read, Addr: 0x900, Burst: 1, Assert: 5, Accept: 6, Resp: 9,
			HasResp: true, Data: []uint32{1}},
	})
	p, stats, err := Translate(tr, TranslateConfig{PollRanges: []PollRange{{Range: sem}}, RecognizePolls: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.PollLoops != 1 {
		t.Fatal("single poll should still produce a loop")
	}
	var hasIf bool
	for _, in := range p.Insts {
		if in.Op == If {
			hasIf = true
		}
	}
	if !hasIf {
		t.Fatal("no If emitted")
	}
}

func TestTranslatePollClusterHoistsRefill(t *testing.T) {
	// poll(0), refill BRD, poll(0), poll(1): the refill splits the run; the
	// translator must hoist it and emit ONE loop with exit value 1.
	sem := ocp.AddrRange{Base: 0x900, Size: 16}
	evs := []ocp.Event{
		{Cmd: ocp.Read, Addr: 0x900, Burst: 1, Assert: 10, Accept: 11, Resp: 14, HasResp: true, Data: []uint32{0}},
		{Cmd: ocp.BurstRead, Addr: 0x1000, Burst: 4, Assert: 17, Accept: 18, Resp: 28, HasResp: true, Data: []uint32{0, 0, 0, 0}},
		{Cmd: ocp.Read, Addr: 0x900, Burst: 1, Assert: 33, Accept: 34, Resp: 37, HasResp: true, Data: []uint32{0}},
		{Cmd: ocp.Read, Addr: 0x900, Burst: 1, Assert: 45, Accept: 46, Resp: 49, HasResp: true, Data: []uint32{1}},
	}
	tr := mkTrace(evs)
	p, stats, err := Translate(tr, TranslateConfig{PollRanges: []PollRange{{Range: sem}}, RecognizePolls: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.PollLoops != 1 {
		t.Fatalf("want one merged loop, got %d", stats.PollLoops)
	}
	// Instruction order: the BurstRead must come before the loop's Read.
	var brdIdx, readIdx = -1, -1
	for i, in := range p.Insts {
		if in.Op == BurstRead && brdIdx < 0 {
			brdIdx = i
		}
		if in.Op == Read && readIdx < 0 {
			readIdx = i
		}
	}
	if brdIdx < 0 || readIdx < 0 || brdIdx > readIdx {
		text, _ := tgpText(p)
		t.Fatalf("refill not hoisted before loop:\n%s", text)
	}
	// Exit value must be the successful 1, not the failed 0.
	for _, in := range p.Insts {
		if in.Op == SetRegister && p.RegNames[in.Rd] == "tempreg" && in.Imm != 1 {
			t.Fatalf("tempreg set to %d, want 1", in.Imm)
		}
	}
}

// TestTranslatePollClusterAcrossChunks: poll episodes that straddle a
// recorded log's chunk boundaries (events 16 and 1024, where the chunks
// switch from 16 to 16 events and from 512 to 512), a hoisted refill
// included, translate to the same program as the same events given as one
// flat chunk.
func TestTranslatePollClusterAcrossChunks(t *testing.T) {
	sem := ocp.AddrRange{Base: 0x900, Size: 16}
	var evs []ocp.Event
	var tick uint64 = 5
	poll := func(v uint32) {
		evs = append(evs, ocp.Event{Cmd: ocp.Read, Addr: 0x900, Burst: 1,
			Assert: tick, Accept: tick + 1, Resp: tick + 4, HasResp: true, Data: []uint32{v}})
		tick += 4 + 8
	}
	for _, start := range []int{13, 1020} {
		for len(evs) < start {
			evs = append(evs, ocp.Event{Cmd: ocp.Write, Addr: 0x100 + uint32(len(evs)%8)*4, Burst: 1,
				Assert: tick, Accept: tick + 1, Data: []uint32{uint32(len(evs))}})
			tick += 1 + 3
		}
		poll(0)
		poll(0)
		evs = append(evs, ocp.Event{Cmd: ocp.BurstRead, Addr: 0x1000, Burst: 4,
			Assert: tick, Accept: tick + 1, Resp: tick + 10, HasResp: true, Data: []uint32{1, 2, 3, 4}})
		tick += 10 + 3
		poll(0)
		poll(0)
		poll(1)
	}
	var log ocp.Log
	for _, e := range evs {
		log.Append(e)
	}
	cfg := TranslateConfig{PollRanges: []PollRange{{Range: sem}}, RecognizePolls: true}
	chunked, cstats, err := Translate(trace.New(0, sim.DefaultClock, log), cfg)
	if err != nil {
		t.Fatal(err)
	}
	flat, fstats, err := Translate(mkTrace(evs), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cstats.PollLoops != 2 || cstats.PollReadsCollapsed != 8 {
		t.Fatalf("chunked trace: %d loops collapsing %d reads, want 2 and 8", cstats.PollLoops, cstats.PollReadsCollapsed)
	}
	if *cstats != *fstats {
		t.Fatalf("stats differ: chunked %+v, flat %+v", *cstats, *fstats)
	}
	ctext, err := tgpText(chunked)
	if err != nil {
		t.Fatal(err)
	}
	ftext, err := tgpText(flat)
	if err != nil {
		t.Fatal(err)
	}
	if ctext != ftext {
		t.Fatalf("chunked and flat traces translate differently:\n%s\nvs\n%s", ctext, ftext)
	}
}

func TestTranslateTimeshiftBaselineKeepsPolls(t *testing.T) {
	sem := ocp.AddrRange{Base: 0x900, Size: 16}
	evs := []ocp.Event{}
	var tick uint64 = 5
	for i := 0; i < 4; i++ {
		v := uint32(0)
		if i == 3 {
			v = 1
		}
		evs = append(evs, ocp.Event{Cmd: ocp.Read, Addr: 0x900, Burst: 1,
			Assert: tick, Accept: tick + 1, Resp: tick + 4, HasResp: true, Data: []uint32{v}})
		tick += 12
	}
	p, stats, err := Translate(mkTrace(evs), TranslateConfig{
		PollRanges: []PollRange{{Range: sem}}, RecognizePolls: false})
	if err != nil {
		t.Fatal(err)
	}
	if stats.PollLoops != 0 {
		t.Fatal("timeshift baseline must not collapse polls")
	}
	var reads int
	for _, in := range p.Insts {
		if in.Op == Read {
			reads++
		}
	}
	if reads != 4 {
		t.Fatalf("timeshift baseline should replay all 4 reads, got %d", reads)
	}
}

func TestTranslateRewind(t *testing.T) {
	tr := mkTrace([]ocp.Event{
		{Cmd: ocp.Write, Addr: 0x20, Burst: 1, Assert: 2, Accept: 3, Data: []uint32{1}},
	})
	p, _, err := Translate(tr, TranslateConfig{RecognizePolls: true, Rewind: true})
	if err != nil {
		t.Fatal(err)
	}
	last := p.Insts[len(p.Insts)-1]
	if last.Op != Jump || last.Imm != 0 {
		t.Fatalf("rewind program must end in Jump(start), got %+v", last)
	}
}

func TestTranslateEmptyTrace(t *testing.T) {
	p, _, err := Translate(mkTrace(nil), TranslateConfig{RecognizePolls: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Insts) != 1 || p.Insts[0].Op != Halt {
		t.Fatal("empty trace should produce a bare Halt")
	}
}

func TestISATable1Coverage(t *testing.T) {
	// Every Table 1 instruction must exist and be distinct.
	table1 := []Op{Read, Write, BurstRead, BurstWrite, If, Jump, SetRegister, Idle}
	seen := map[Op]bool{}
	for _, op := range table1 {
		if !op.Valid() {
			t.Fatalf("%v invalid", op)
		}
		if seen[op] {
			t.Fatalf("%v duplicated", op)
		}
		seen[op] = true
	}
	if Halt.Valid() == false {
		t.Fatal("Halt extension missing")
	}
}
