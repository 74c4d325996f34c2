package core

import (
	"fmt"

	"noctg/internal/ocp"
	"noctg/internal/sim"
)

type devState int

const (
	dRun devState = iota
	dIdle
	dBus // an OCP transaction in flight
	dHalt
)

// Device is the multi-cycle TG processor of Section 4: an instruction
// memory, a register file, and no data memory. It drives an OCP master
// port and implements platform.Master, so it drops into any slot an ARM
// core occupies.
//
// Cycle costs (the translator's arithmetic depends on these exactly):
//
//	SetRegister, If, Jump, Halt : 1 cycle
//	Idle(n)                     : n cycles
//	Read/BurstRead              : asserts on its first cycle, completes the
//	                              cycle the response arrives
//	Write/BurstWrite            : asserts on its first cycle, completes the
//	                              cycle the interconnect accepts it
type Device struct {
	ocp.Handshake
	prog *Program
	id   int

	regs  [NumRegs]uint32
	pc    int
	state devState
	// wakeAt is the absolute cycle at which an Idle wait expires: the
	// device resumes execution at the first tick whose cycle is >= wakeAt.
	// Keeping the deadline absolute (instead of a per-tick countdown) is
	// what lets the skip kernel jump over the whole wait without ticking.
	wakeAt uint64
	// burstBuf is the reusable BurstWrite payload buffer. Interconnects
	// copy the payload no later than acceptance (see ocp.MasterPort), so
	// one buffer per device is safe.
	burstBuf []uint32

	halted    bool
	faulted   bool
	haltCycle uint64

	// InstRet counts executed TG instructions; Transactions counts issued
	// OCP commands. Both are registry-registerable counters (RegisterStats)
	// so phased measurement can reset them at epoch boundaries.
	InstRet      sim.Counter
	Transactions sim.Counter
}

// NewDevice builds a TG executing prog through port. The program's declared
// register initial values are loaded into the register file.
func NewDevice(prog *Program, port ocp.MasterPort) (*Device, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if port == nil {
		return nil, fmt.Errorf("core: NewDevice requires a port")
	}
	d := &Device{Handshake: ocp.NewHandshake(port), prog: prog, id: prog.MasterID}
	for i, v := range prog.RegInit {
		d.regs[i] = v
	}
	return d, nil
}

// Name implements sim.Named.
func (d *Device) Name() string { return fmt.Sprintf("tg%d", d.id) }

// RegisterStats implements sim.StatsSource.
func (d *Device) RegisterStats(r *sim.Registry) {
	r.RegisterCounter("inst_ret", &d.InstRet)
	r.RegisterCounter("transactions", &d.Transactions)
}

// Done reports whether the TG halted (platform.Master).
func (d *Device) Done() bool { return d.halted }

// Faulted reports whether the TG stopped on a bus error.
func (d *Device) Faulted() bool { return d.faulted }

// HaltCycle returns the cycle Halt executed.
func (d *Device) HaltCycle() uint64 { return d.haltCycle }

// Preemptible reports whether the device is at a safe point for a
// multitasking scheduler to suspend it: between instructions or inside an
// Idle wait, but never with an OCP transaction in flight.
func (d *Device) Preemptible() bool {
	return d.state == dRun || d.state == dIdle || d.state == dHalt
}

// NextWake implements sim.Sleeper: a halted TG never wakes, an idling TG
// wakes when its Idle expires, and a TG blocked on an OCP handshake sleeps
// until its port wakes it, or polls every cycle on a port that cannot. The
// sleeps are strict "will not act before" promises: an idling TG is purely
// self-timed (no external input can shorten an Idle), and a port holding
// the TG's waker fires it at every change of its answers, so the event
// kernel may drop the TG from the tick loop entirely in between.
func (d *Device) NextWake(now uint64) uint64 {
	switch d.state {
	case dHalt:
		return sim.WakeNever
	case dIdle:
		if d.wakeAt > now {
			return d.wakeAt
		}
	case dBus:
		return d.BlockedWake(now)
	}
	return now
}

// PushWake defers an in-progress Idle wait by delta cycles. Schedulers that
// freeze suspended tasks (core.MultiTask with RunIdleTimers disabled) call
// it on resume with the length of the suspension, so the absolute deadline
// behaves exactly like a paused countdown. It is a no-op outside an Idle
// wait.
func (d *Device) PushWake(delta uint64) {
	if d.state == dIdle {
		d.wakeAt += delta
	}
}

// Tick implements sim.Device.
func (d *Device) Tick(cycle uint64) {
	switch d.state {
	case dHalt:
		return
	case dIdle:
		if cycle < d.wakeAt {
			return
		}
		// The wait expired: fall through to execute this cycle's
		// instruction, exactly as the strict per-cycle countdown did.
		d.state = dRun
		fallthrough
	case dRun:
		// Execute the instruction at pc (one per cycle). A bus instruction
		// starts its transaction and presents it on this cycle below.
		if d.pc >= len(d.prog.Insts) {
			d.halt(cycle)
			return
		}
		in := d.prog.Insts[d.pc]
		d.InstRet++
		switch in.Op {
		case SetRegister:
			d.regs[in.Rd] = in.Imm
			d.pc++
			return
		case If:
			if in.Cnd.Eval(d.regs[in.Ra], d.regs[in.Rb]) {
				d.pc = int(in.Imm)
			} else {
				d.pc++
			}
			return
		case Jump:
			d.pc = int(in.Imm)
			return
		case Idle:
			n := in.Imm
			if in.Rb == 1 {
				n = d.regs[in.Ra]
			}
			d.pc++
			if n > 1 {
				// Idle(n) executed at this cycle occupies n cycles total:
				// execution resumes at cycle+n.
				d.wakeAt = cycle + uint64(n)
				d.state = dIdle
			}
			return
		case Halt:
			d.halt(cycle)
			return
		case Read:
			d.Start(ocp.Request{Cmd: ocp.Read, Addr: d.regs[in.Ra], Burst: 1, MasterID: d.id})
		case BurstRead:
			d.Start(ocp.Request{Cmd: ocp.BurstRead, Addr: d.regs[in.Ra], Burst: int(in.Imm), MasterID: d.id})
		case Write:
			d.burstBuf = append(d.burstBuf[:0], d.regs[in.Rb])
			d.Start(ocp.Request{Cmd: ocp.Write, Addr: d.regs[in.Ra], Burst: 1,
				Data: d.burstBuf, MasterID: d.id})
		case BurstWrite:
			// Reuse the device-owned payload buffer: the previous burst was
			// copied by the interconnect at acceptance, and this device
			// blocks until each request is accepted.
			d.burstBuf = d.burstBuf[:0]
			for i := uint32(0); i < in.Imm; i++ {
				d.burstBuf = append(d.burstBuf, d.regs[in.Rb])
			}
			d.Start(ocp.Request{Cmd: ocp.BurstWrite, Addr: d.regs[in.Ra], Burst: int(in.Imm),
				Data: d.burstBuf, MasterID: d.id})
		}
		d.state = dBus
	}
	// dBus: a read's response lands in RdReg, an error response faults
	// the TG, and completion moves on to the next instruction.
	accepted, resp, done := d.Step()
	if accepted {
		d.Transactions++
	}
	if !done {
		return
	}
	if resp != nil {
		if resp.Err {
			d.fault(cycle)
			return
		}
		if len(resp.Data) > 0 {
			d.regs[RdReg] = resp.Data[0]
		}
	}
	d.pc++
	d.state = dRun
}

func (d *Device) halt(cycle uint64) {
	d.halted = true
	d.haltCycle = cycle
	d.state = dHalt
}

func (d *Device) fault(cycle uint64) {
	d.faulted = true
	d.halt(cycle)
}

// TickWake implements sim.TickSleeper: one dispatch for the tick plus the
// post-tick wake query, exactly Tick(cycle) then NextWake(cycle+1).
func (d *Device) TickWake(cycle uint64) uint64 {
	d.Tick(cycle)
	return d.NextWake(cycle + 1)
}

var _ sim.Device = (*Device)(nil)
var _ sim.Sleeper = (*Device)(nil)
var _ sim.TickSleeper = (*Device)(nil)
var _ sim.WakeSink = (*Device)(nil)
