package cpu

import (
	"fmt"

	"noctg/internal/cache"
	"noctg/internal/sim"
)

type coreState int

const (
	sReset coreState = iota
	sFetch0
	sFetch1
	sExec
	sMem
	sHalted
)

// Core is one miniARM processor. It implements sim.Device and drives its
// MemUnit (and through it, its single OCP master port) itself, so platform
// code only registers the core.
//
// The core is also a sim.Sleeper and a sim.WakeSink, so it runs on the
// event kernel like every other master. After each clock that steps the
// bus, Tick goes on executing the clocks that touch nothing outside the
// core (cache hits, ALU operations and branches) up to the first one that
// steps the bus again, or that would halt it: the core has then simulated
// ahead of the engine, and the engine's ticks of those cycles are no-ops.
// It runs ahead a whole instruction per call where the instruction's
// fetch hits — the clocks, cache probes and counts of step, without
// step's per-clock dispatch — and a clock at a time through step
// elsewhere. A core blocked on its port sleeps until the port wakes it,
// and counts the cycles it slept as stalls.
//
// Reset state: all registers zero except r15, which holds the core ID (the
// benchmarks use it for work partitioning, standing in for MPARM's
// per-processor identification).
type Core struct {
	ID int

	mu    *cache.MemUnit
	regs  [16]uint32
	pc    uint32
	state coreState

	w0, w1   uint32
	inst     Inst
	execLeft int

	halted    bool
	faulted   bool
	haltCycle uint64
	// next is the first cycle the core has not simulated yet.
	next uint64
	// perClock sends the run-ahead loop through step alone, one clock per
	// call: the oracle the whole-instruction path is tested against. Only
	// tests set it.
	perClock bool

	// InstRet counts retired instructions.
	InstRet uint64
	// StallCycles counts cycles spent waiting on memory.
	StallCycles uint64
}

// NewCore builds a core with reset PC entry.
func NewCore(id int, mu *cache.MemUnit, entry uint32) *Core {
	if mu == nil {
		panic("cpu: NewCore requires a MemUnit")
	}
	c := &Core{ID: id, mu: mu, pc: entry}
	c.regs[15] = uint32(id)
	return c
}

// Name implements sim.Named.
func (c *Core) Name() string { return fmt.Sprintf("core%d", c.ID) }

// Halted reports whether the core executed HALT or faulted.
func (c *Core) Halted() bool { return c.halted }

// Faulted reports whether the core stopped on a bus fault or decode error.
func (c *Core) Faulted() bool { return c.faulted }

// HaltCycle returns the cycle HALT retired (valid once Halted).
func (c *Core) HaltCycle() uint64 { return c.haltCycle }

// Reg returns register n (test/diagnostic hook).
func (c *Core) Reg(n int) uint32 { return c.regs[n] }

// PC returns the current program counter.
func (c *Core) PC() uint32 { return c.pc }

// MemUnit returns the core's memory unit, which holds its caches.
func (c *Core) MemUnit() *cache.MemUnit { return c.mu }

// aheadMax bounds how many cycles one Tick simulates ahead of the engine,
// so a program that loops forever without touching the bus still returns
// control to the engine, which stops it at its cycle budget.
const aheadMax = 1 << 12

// Tick implements sim.Device: the clock at cycle, then every following
// clock that touches nothing outside the core (see local), a whole
// instruction at a time where its fetch hits (see whole). A tick of a
// cycle the core already simulated is a no-op, so strict ticking computes
// exactly what the sleeping kernels do.
func (c *Core) Tick(cycle uint64) {
	if c.halted || cycle < c.next {
		return
	}
	if cycle > c.next && !c.mu.Local() {
		// The cycles slept blocked on the port were stalls.
		c.StallCycles += cycle - c.next
	}
	c.step(cycle)
	end := cycle + aheadMax
	for cycle++; cycle < end && c.local(); cycle++ {
		if c.state == sFetch0 && !c.perClock {
			cycle = c.whole(cycle, end)
		} else {
			c.step(cycle)
		}
	}
	c.next = cycle
}

// whole simulates, from the clock at cycle that takes an instruction's
// first word, the clocks of that instruction through its execution, and
// returns the last cycle it simulated. The clocks are step's, with the
// same cache probes in the same order; whole only skips the per-clock
// dispatch. It stops after the first clock wherever local would stop the
// run-ahead — at a second word that misses, before decoding a faulting
// instruction, before retiring HALT — and also when the instruction's
// clocks do not all fit before end, leaving the core as step leaves it.
func (c *Core) whole(cycle, end uint64) uint64 {
	w0, ok := c.mu.TakeHit()
	if !ok {
		c.step(cycle)
		return cycle
	}
	// The first word's clock, which fetches the second word.
	c.w0 = w0
	c.state = sFetch1
	c.mu.Begin(cache.OpFetch, c.pc+4, 0)
	if !c.mu.Local() || !decodes(w0) { // a miss puts the unit on the port
		return cycle
	}
	op := Op(w0 >> 24)
	last := cycle + 1 + uint64(ExecCycles(op))
	if op == HALT || last >= end {
		return cycle
	}
	// The second word's clock, the execute-stage clocks, and the last of
	// them, which executes.
	c.w1, _ = c.mu.TakeHit()
	c.inst.decode(w0, c.w1)
	c.execLeft = 0
	c.execute(last)
	return last
}

// local reports whether the core's next clock touches nothing outside the
// core: its memory unit stays off the port, and the clock neither retires
// HALT nor decodes a faulting instruction, because Halted feeds the run's
// completion predicate.
func (c *Core) local() bool {
	if c.halted || !c.mu.Local() {
		return false
	}
	switch c.state {
	case sFetch1:
		return decodes(c.w0)
	case sExec:
		return c.execLeft > 1 || c.inst.Op != HALT
	}
	return true
}

// NextWake implements sim.Sleeper: a halted core never wakes, one that
// ran ahead wakes at the first cycle it has not simulated, and one whose
// memory unit waits on the port sleeps as that unit does.
func (c *Core) NextWake(now uint64) uint64 {
	switch {
	case c.halted:
		return sim.WakeNever
	case c.next > now:
		return c.next
	}
	return c.mu.NextWake(now)
}

// TickWake implements sim.TickSleeper (Tick then NextWake in one dispatch).
func (c *Core) TickWake(cycle uint64) uint64 {
	c.Tick(cycle)
	return c.NextWake(cycle + 1)
}

// SetWaker implements sim.WakeSink: the engine's handle goes to the memory
// unit's handshake, and through it to the port.
func (c *Core) SetWaker(w sim.Waker) { c.mu.SetWaker(w) }

// step is one processor clock.
func (c *Core) step(cycle uint64) {
	c.mu.Tick(cycle)
	if c.mu.Faulted() {
		c.fault(cycle)
		return
	}
	switch c.state {
	case sReset:
		c.mu.Begin(cache.OpFetch, c.pc, 0)
		c.state = sFetch0
	case sFetch0:
		v, ok := c.mu.TakeResult()
		if !ok {
			c.StallCycles++
			return
		}
		c.w0 = v
		c.mu.Begin(cache.OpFetch, c.pc+4, 0)
		c.state = sFetch1
	case sFetch1:
		v, ok := c.mu.TakeResult()
		if !ok {
			c.StallCycles++
			return
		}
		c.w1 = v
		if !c.inst.decode(c.w0, c.w1) {
			c.fault(cycle)
			return
		}
		c.execLeft = ExecCycles(c.inst.Op)
		c.state = sExec
	case sExec:
		c.execLeft--
		if c.execLeft > 0 {
			return
		}
		c.execute(cycle)
	case sMem:
		v, ok := c.mu.TakeResult()
		if !ok {
			c.StallCycles++
			return
		}
		if c.inst.Op == LDR {
			c.regs[c.inst.Rd] = v
		}
		c.retire(c.pc + InstBytes)
	}
}

// execute applies the decoded instruction on its final execute cycle.
func (c *Core) execute(cycle uint64) {
	i := &c.inst
	next := c.pc + InstBytes
	r := &c.regs
	switch i.Op {
	case NOP:
	case HALT:
		c.halted = true
		c.haltCycle = cycle
		c.InstRet++
		return
	case LDI:
		r[i.Rd] = i.Imm
	case MOV:
		r[i.Rd] = r[i.Ra]
	case ADD:
		r[i.Rd] = r[i.Ra] + r[i.Rb]
	case ADDI:
		r[i.Rd] = r[i.Ra] + i.Imm
	case SUB:
		r[i.Rd] = r[i.Ra] - r[i.Rb]
	case SUBI:
		r[i.Rd] = r[i.Ra] - i.Imm
	case MUL:
		r[i.Rd] = r[i.Ra] * r[i.Rb]
	case AND:
		r[i.Rd] = r[i.Ra] & r[i.Rb]
	case ANDI:
		r[i.Rd] = r[i.Ra] & i.Imm
	case OR:
		r[i.Rd] = r[i.Ra] | r[i.Rb]
	case ORI:
		r[i.Rd] = r[i.Ra] | i.Imm
	case XOR:
		r[i.Rd] = r[i.Ra] ^ r[i.Rb]
	case XORI:
		r[i.Rd] = r[i.Ra] ^ i.Imm
	case SHL:
		r[i.Rd] = r[i.Ra] << (r[i.Rb] & 31)
	case SHLI:
		r[i.Rd] = r[i.Ra] << (i.Imm & 31)
	case SHR:
		r[i.Rd] = r[i.Ra] >> (r[i.Rb] & 31)
	case SHRI:
		r[i.Rd] = r[i.Ra] >> (i.Imm & 31)
	case ROR:
		sh := r[i.Rb] & 31
		r[i.Rd] = r[i.Ra]>>sh | r[i.Ra]<<((32-sh)&31)
	case RORI:
		sh := i.Imm & 31
		r[i.Rd] = r[i.Ra]>>sh | r[i.Ra]<<((32-sh)&31)
	case BEQ:
		if r[i.Ra] == r[i.Rb] {
			next = i.Imm
		}
	case BNE:
		if r[i.Ra] != r[i.Rb] {
			next = i.Imm
		}
	case BLT:
		if int32(r[i.Ra]) < int32(r[i.Rb]) {
			next = i.Imm
		}
	case BGE:
		if int32(r[i.Ra]) >= int32(r[i.Rb]) {
			next = i.Imm
		}
	case BLTU:
		if r[i.Ra] < r[i.Rb] {
			next = i.Imm
		}
	case BGEU:
		if r[i.Ra] >= r[i.Rb] {
			next = i.Imm
		}
	case JMP:
		next = i.Imm
	case JAL:
		r[i.Rd] = c.pc + InstBytes
		next = i.Imm
	case JR:
		next = r[i.Ra]
	case LDR:
		c.mu.Begin(cache.OpLoad, r[i.Ra]+i.Imm, 0)
		c.state = sMem
		return
	case STR:
		c.mu.Begin(cache.OpStore, r[i.Ra]+i.Imm, r[i.Rd])
		c.state = sMem
		return
	}
	c.retire(next)
}

// retire commits the instruction and starts the next fetch immediately.
func (c *Core) retire(next uint32) {
	c.InstRet++
	c.pc = next
	c.mu.Begin(cache.OpFetch, c.pc, 0)
	c.state = sFetch0
}

func (c *Core) fault(cycle uint64) {
	c.halted = true
	c.faulted = true
	c.haltCycle = cycle
}

var _ sim.Device = (*Core)(nil)
var _ sim.TickSleeper = (*Core)(nil)
var _ sim.WakeSink = (*Core)(nil)
