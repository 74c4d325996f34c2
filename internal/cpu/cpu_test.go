package cpu

import (
	"strings"
	"testing"
	"testing/quick"

	"noctg/internal/amba"
	"noctg/internal/cache"
	"noctg/internal/mem"
	"noctg/internal/ocp"
	"noctg/internal/sim"
)

const (
	privBase   = 0x0001_0000
	sharedBase = 0x0800_0000
	semBase    = 0x0900_0000
)

type testRig struct {
	e      *sim.Engine
	core   *Core
	priv   *mem.RAM
	shared *mem.RAM
	sem    *mem.SemBank
}

func buildRig(t *testing.T, src string) *testRig {
	t.Helper()
	return buildRigICache(t, src, cache.Config{Lines: 64, WordsPerLine: 4})
}

// buildRigICache is buildRig with the given I-cache.
func buildRigICache(t *testing.T, src string, icache cache.Config) *testRig {
	t.Helper()
	prog, err := Assemble(src, privBase)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	e := sim.NewEngine(sim.Clock{})
	bus := amba.New(amba.Config{}, e.Cycle)
	priv := mem.NewRAM("priv", privBase, 0x10000, 1)
	shared := mem.NewRAM("shared", sharedBase, 0x10000, 1)
	sem := mem.NewSemBank("sem", semBase, 8, 1)
	for _, s := range []struct {
		sl  ocp.Slave
		rng ocp.AddrRange
	}{{priv, priv.Range()}, {shared, shared.Range()}, {sem, sem.Range()}} {
		if err := bus.MapSlave(s.sl, s.rng); err != nil {
			t.Fatal(err)
		}
	}
	priv.LoadWords(prog.Base, prog.Words)
	mu := cache.NewMemUnit(bus.NewMasterPort(),
		cache.New(icache),
		cache.New(cache.Config{Lines: 64, WordsPerLine: 4}),
		[]ocp.AddrRange{priv.Range()})
	core := NewCore(0, mu, prog.Entry)
	e.Add(core)
	e.Add(bus)
	return &testRig{e: e, core: core, priv: priv, shared: shared, sem: sem}
}

func (r *testRig) run(t *testing.T, max uint64) {
	t.Helper()
	if _, err := r.e.Run(max, r.core.Halted); err != nil {
		t.Fatalf("program did not halt: %v (pc=%#x)", err, r.core.PC())
	}
	if r.core.Faulted() {
		t.Fatalf("program faulted at pc=%#x", r.core.PC())
	}
}

func runSrc(t *testing.T, src string) *testRig {
	t.Helper()
	r := buildRig(t, src)
	r.run(t, 1_000_000)
	return r
}

func TestALUOperations(t *testing.T) {
	cases := []struct {
		name string
		src  string
		reg  int
		want uint32
	}{
		{"ldi", "ldi r1, 0x12345678\nhalt", 1, 0x12345678},
		{"mov", "ldi r1, 7\nmov r2, r1\nhalt", 2, 7},
		{"add", "ldi r1, 3\nldi r2, 4\nadd r3, r1, r2\nhalt", 3, 7},
		{"addi", "ldi r1, 3\naddi r3, r1, 10\nhalt", 3, 13},
		{"sub", "ldi r1, 3\nldi r2, 4\nsub r3, r1, r2\nhalt", 3, 0xffffffff},
		{"subi", "ldi r1, 10\nsubi r3, r1, 4\nhalt", 3, 6},
		{"mul", "ldi r1, 6\nldi r2, 7\nmul r3, r1, r2\nhalt", 3, 42},
		{"and", "ldi r1, 0xff0\nldi r2, 0x0ff\nand r3, r1, r2\nhalt", 3, 0x0f0},
		{"andi", "ldi r1, 0xff0\nandi r3, r1, 0x0ff\nhalt", 3, 0x0f0},
		{"or", "ldi r1, 0xf00\nldi r2, 0x00f\nor r3, r1, r2\nhalt", 3, 0xf0f},
		{"ori", "ldi r1, 0xf00\nori r3, r1, 0x0f0\nhalt", 3, 0xff0},
		{"xor", "ldi r1, 0xff\nldi r2, 0x0f\nxor r3, r1, r2\nhalt", 3, 0xf0},
		{"xori", "ldi r1, 0xff\nxori r3, r1, 0xff\nhalt", 3, 0},
		{"shl", "ldi r1, 1\nldi r2, 4\nshl r3, r1, r2\nhalt", 3, 16},
		{"shli", "ldi r1, 3\nshli r3, r1, 2\nhalt", 3, 12},
		{"shr", "ldi r1, 0x80000000\nldi r2, 31\nshr r3, r1, r2\nhalt", 3, 1},
		{"shri", "ldi r1, 16\nshri r3, r1, 2\nhalt", 3, 4},
		{"ror", "ldi r1, 1\nldi r2, 1\nror r3, r1, r2\nhalt", 3, 0x80000000},
		{"rori", "ldi r1, 0x12345678\nrori r3, r1, 8\nhalt", 3, 0x78123456},
		{"rori zero", "ldi r1, 0xabcd\nrori r3, r1, 0\nhalt", 3, 0xabcd},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := runSrc(t, c.src)
			if got := r.core.Reg(c.reg); got != c.want {
				t.Fatalf("r%d = %#x, want %#x", c.reg, got, c.want)
			}
		})
	}
}

func TestBranches(t *testing.T) {
	cases := []struct {
		name string
		src  string // sets r3 = 1 on the branch-taken path
	}{
		{"beq taken", "ldi r1, 5\nldi r2, 5\nbeq r1, r2, yes\nldi r3, 0\nhalt\nyes: ldi r3, 1\nhalt"},
		{"bne taken", "ldi r1, 5\nldi r2, 6\nbne r1, r2, yes\nldi r3, 0\nhalt\nyes: ldi r3, 1\nhalt"},
		{"blt signed", "ldi r1, -3\nldi r2, 2\nblt r1, r2, yes\nldi r3, 0\nhalt\nyes: ldi r3, 1\nhalt"},
		{"bge signed", "ldi r1, 2\nldi r2, -3\nbge r1, r2, yes\nldi r3, 0\nhalt\nyes: ldi r3, 1\nhalt"},
		{"bltu unsigned", "ldi r1, 2\nldi r2, -3\nbltu r1, r2, yes\nldi r3, 0\nhalt\nyes: ldi r3, 1\nhalt"},
		{"bgeu unsigned", "ldi r1, -3\nldi r2, 2\nbgeu r1, r2, yes\nldi r3, 0\nhalt\nyes: ldi r3, 1\nhalt"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := runSrc(t, c.src)
			if got := r.core.Reg(3); got != 1 {
				t.Fatalf("branch not taken: r3 = %d", got)
			}
		})
	}
	// Not-taken path.
	r := runSrc(t, "ldi r1, 1\nldi r2, 2\nbeq r1, r2, yes\nldi r3, 7\nhalt\nyes: ldi r3, 1\nhalt")
	if r.core.Reg(3) != 7 {
		t.Fatal("beq wrongly taken")
	}
}

func TestLoopCountdown(t *testing.T) {
	r := runSrc(t, `
		ldi r1, 10
		ldi r2, 0
	loop:
		addi r2, r2, 3
		subi r1, r1, 1
		ldi r4, 0
		bne r1, r4, loop
		halt`)
	if r.core.Reg(2) != 30 {
		t.Fatalf("loop result = %d, want 30", r.core.Reg(2))
	}
	if r.core.InstRet != 2+4*10+1 {
		t.Fatalf("retired %d instructions", r.core.InstRet)
	}
}

func TestJalJrSubroutine(t *testing.T) {
	r := runSrc(t, `
		ldi r1, 5
		jal r14, double
		jal r14, double
		halt
	double:
		add r1, r1, r1
		jr r14`)
	if r.core.Reg(1) != 20 {
		t.Fatalf("r1 = %d, want 20", r.core.Reg(1))
	}
}

func TestLoadStorePrivate(t *testing.T) {
	r := runSrc(t, `
		ldi r1, data
		ldr r2, [r1+0]
		ldr r3, [r1+4]
		add r4, r2, r3
		str r4, [r1+8]
		halt
	data:
		.word 11, 31, 0`)
	if r.core.Reg(4) != 42 {
		t.Fatalf("r4 = %d", r.core.Reg(4))
	}
	addr := r.core.ID // silence unused warnings pattern
	_ = addr
	sym := uint32(0)
	// data label address: find via symbol table by reassembling.
	prog, _ := Assemble("ldi r1, data\nldr r2, [r1+0]\nldr r3, [r1+4]\nadd r4, r2, r3\nstr r4, [r1+8]\nhalt\ndata:\n.word 11, 31, 0", privBase)
	sym = prog.Symbols["data"]
	// Write-through must have landed in RAM.
	if got := r.priv.PeekWord(sym + 8); got != 42 {
		t.Fatalf("mem[data+8] = %d, want 42", got)
	}
}

func TestSharedMemoryUncached(t *testing.T) {
	r := runSrc(t, `
		ldi r1, 0x08000000
		ldi r2, 1234
		str r2, [r1+0x10]
		ldr r3, [r1+0x10]
		halt`)
	if r.core.Reg(3) != 1234 {
		t.Fatalf("r3 = %d", r.core.Reg(3))
	}
	if r.shared.PeekWord(sharedBase+0x10) != 1234 {
		t.Fatal("store did not reach shared RAM")
	}
}

func TestSemaphoreAcquireRelease(t *testing.T) {
	r := runSrc(t, `
		ldi r1, 0x09000000
		ldr r2, [r1+0]       ; acquire: reads 1
		ldr r3, [r1+0]       ; poll while held: reads 0
		ldi r4, 1
		str r4, [r1+0]       ; release
		ldr r5, [r1+0]       ; acquire again: reads 1
		halt`)
	if r.core.Reg(2) != 1 || r.core.Reg(3) != 0 || r.core.Reg(5) != 1 {
		t.Fatalf("semaphore sequence r2=%d r3=%d r5=%d", r.core.Reg(2), r.core.Reg(3), r.core.Reg(5))
	}
}

func TestCoreIDInR15(t *testing.T) {
	prog, err := Assemble("mov r1, r15\nhalt", privBase)
	if err != nil {
		t.Fatal(err)
	}
	_ = prog
	r := runSrc(t, "mov r1, r15\nhalt")
	if r.core.Reg(1) != 0 {
		t.Fatal("core 0 should read ID 0")
	}
	// Build a rig manually for core ID 3.
	e := sim.NewEngine(sim.Clock{})
	bus := amba.New(amba.Config{}, e.Cycle)
	priv := mem.NewRAM("priv", privBase, 0x1000, 1)
	if err := bus.MapSlave(priv, priv.Range()); err != nil {
		t.Fatal(err)
	}
	priv.LoadWords(prog.Base, prog.Words)
	mu := cache.NewMemUnit(bus.NewMasterPort(), cache.New(cache.Config{}), cache.New(cache.Config{}), []ocp.AddrRange{priv.Range()})
	core := NewCore(3, mu, prog.Entry)
	e.Add(core)
	e.Add(bus)
	if _, err := e.Run(10_000, core.Halted); err != nil {
		t.Fatal(err)
	}
	if core.Reg(1) != 3 {
		t.Fatalf("core 3 read ID %d", core.Reg(1))
	}
}

func TestHaltRecordsCycleAndStops(t *testing.T) {
	r := runSrc(t, "halt")
	hc := r.core.HaltCycle()
	if hc == 0 {
		t.Fatal("halt cycle not recorded")
	}
	c := r.e.Cycle()
	r.e.RunFor(10)
	if r.core.HaltCycle() != hc || r.e.Cycle() != c+10 {
		t.Fatal("halted core should stay halted")
	}
	if r.core.InstRet != 1 {
		t.Fatalf("InstRet = %d", r.core.InstRet)
	}
}

func TestFaultOnUnmappedLoad(t *testing.T) {
	rig := buildRig(t, "ldi r1, 0x40000000\nldr r2, [r1+0]\nhalt")
	if _, err := rig.e.Run(100_000, rig.core.Halted); err != nil {
		t.Fatal(err)
	}
	if !rig.core.Faulted() {
		t.Fatal("unmapped load should fault the core")
	}
}

func TestFaultOnGarbageInstruction(t *testing.T) {
	rig := buildRig(t, ".word 0xffffffff, 0\nhalt")
	if _, err := rig.e.Run(100_000, rig.core.Halted); err != nil {
		t.Fatal(err)
	}
	if !rig.core.Faulted() {
		t.Fatal("invalid opcode should fault")
	}
}

func TestDeterminism(t *testing.T) {
	src := `
		ldi r1, 20
		ldi r2, 0
	loop:
		addi r2, r2, 7
		ldr r3, [r5+data]
		add r2, r2, r3
		subi r1, r1, 1
		ldi r4, 0
		bne r1, r4, loop
		halt
	data: .word 5`
	r1 := runSrc(t, src)
	r2 := runSrc(t, src)
	if r1.core.HaltCycle() != r2.core.HaltCycle() {
		t.Fatalf("non-deterministic: %d vs %d", r1.core.HaltCycle(), r2.core.HaltCycle())
	}
	if r1.core.Reg(2) != r2.core.Reg(2) {
		t.Fatal("register state diverged")
	}
}

func TestCacheRefillTrafficGenerated(t *testing.T) {
	r := runSrc(t, `
		ldi r1, 100
	loop:
		subi r1, r1, 1
		ldi r4, 0
		bne r1, r4, loop
		halt`)
	ic := r.core.mu.ICache()
	if ic.Refills == 0 {
		t.Fatal("instruction fetch should cause refills")
	}
	if ic.Hits == 0 || ic.Hits < ic.Misses*10 {
		t.Fatalf("tight loop should be cache resident: hits=%d misses=%d", ic.Hits, ic.Misses)
	}
}

func TestEncodeDecodeRoundTripProperty(t *testing.T) {
	f := func(op uint8, rd, ra, rb uint8, imm uint32) bool {
		in := Inst{
			Op: Op(op % uint8(opCount)),
			Rd: int(rd % 16), Ra: int(ra % 16), Rb: int(rb % 16),
			Imm: imm,
		}
		w0, w1 := in.Encode()
		out, ok := Decode(w0, w1)
		return ok && out == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsBadOpcode(t *testing.T) {
	if _, ok := Decode(uint32(opCount)<<24, 0); ok {
		t.Fatal("decode accepted invalid opcode")
	}
	if _, ok := Decode(uint32(ADD)<<24|16<<16, 0); ok {
		t.Fatal("decode accepted register 16")
	}
}

func TestAssemblerDirectives(t *testing.T) {
	prog, err := Assemble(`
		.equ magic 0x42
		ldi r1, magic
		halt
	tab:
		.word 1, 2, magic+1
		.space 8
	after:
		.word after`, 0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Symbols["magic"] != 0x42 {
		t.Fatal(".equ value")
	}
	tab := prog.Symbols["tab"]
	idx := (tab - 0x1000) / 4
	if prog.Words[idx] != 1 || prog.Words[idx+1] != 2 || prog.Words[idx+2] != 0x43 {
		t.Fatalf("table contents %v", prog.Words[idx:idx+3])
	}
	after := prog.Symbols["after"]
	if after != tab+12+8 {
		t.Fatalf("after = %#x", after)
	}
	if prog.Words[(after-0x1000)/4] != after {
		t.Fatal("self-referential .word")
	}
}

func TestAssemblerOrgAndEntry(t *testing.T) {
	prog, err := Assemble(`
		.org 0x1100
	start:
		halt`, 0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Entry != 0x1100 {
		t.Fatalf("entry = %#x, want 0x1100", prog.Entry)
	}
	if len(prog.Words) != (0x108 / 4) {
		t.Fatalf("image size %d words", len(prog.Words))
	}
}

func TestAssemblerErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"unknown mnemonic", "frobnicate r1"},
		{"bad register", "ldi r16, 1"},
		{"undefined symbol", "ldi r1, nothere\nhalt"},
		{"duplicate label", "a:\nnop\na:\nnop"},
		{"wrong operand count", "add r1, r2"},
		{"bad mem operand", "ldr r1, r2"},
		{"org backwards", "nop\n.org 0"},
		{"bad space", ".space 3"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Assemble(c.src, 0x1000); err == nil {
				t.Fatalf("expected error for %q", c.src)
			}
		})
	}
}

func TestAssemblerForwardReferences(t *testing.T) {
	prog, err := Assemble(`
		jmp fwd
		nop
	fwd:
		ldi r1, later
		halt
	later:
		.word 9`, 0x2000)
	if err != nil {
		t.Fatal(err)
	}
	inst, ok := Decode(prog.Words[0], prog.Words[1])
	if !ok || inst.Op != JMP || inst.Imm != prog.Symbols["fwd"] {
		t.Fatalf("jmp imm = %#x, want %#x", inst.Imm, prog.Symbols["fwd"])
	}
}

func TestDisassemblyStrings(t *testing.T) {
	// Every opcode must render something assembler-shaped.
	for o := Op(0); o < opCount; o++ {
		s := Inst{Op: o, Rd: 1, Ra: 2, Rb: 3, Imm: 4}.String()
		if s == "" || strings.Contains(s, "?") {
			t.Fatalf("op %v renders %q", o, s)
		}
	}
}

func TestMemOperandForms(t *testing.T) {
	prog, err := Assemble(`
		ldi r2, 0x10000
		ldr r1, [r2]
		ldr r1, [r2+4]
		ldr r1, [r2 + 8]
		halt`, privBase)
	if err != nil {
		t.Fatal(err)
	}
	_ = prog
}

// TestExecCyclesTable: the opcode-indexed latency table answers exactly as
// the opcode map it replaced did, for all 256 values an Op can hold.
func TestExecCyclesTable(t *testing.T) {
	legacy := map[Op]int{
		MUL: 3,
		BEQ: 2, BNE: 2, BLT: 2, BGE: 2, BLTU: 2, BGEU: 2,
		JMP: 2, JAL: 2, JR: 2,
	}
	for i := 0; i < 256; i++ {
		op := Op(i)
		want, ok := legacy[op]
		if !ok {
			want = 1
		}
		if got := ExecCycles(op); got != want {
			t.Errorf("ExecCycles(%v) = %d, want %d", op, got, want)
		}
	}
}
