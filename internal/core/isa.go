// Package core implements the paper's contribution: the OCP-master Traffic
// Generator. It provides
//
//   - the TG instruction set of Table 1 (OCP commands, conditional
//     sequencing, parameterised waits) plus a Halt extension,
//   - the symbolic .tgp program format (assembler, formatter) and the .bin
//     binary image codec,
//   - the trace→program translator with reactive poll-loop recognition
//     (Section 5), and
//   - the cycle-true TG device that executes programs against any OCP
//     interconnect (Section 4).
package core

import "fmt"

// Op enumerates TG opcodes (Table 1). Halt is an extension: the paper's
// programs end in `Jump(start)` because a silicon TG free-runs, but a
// simulation needs a termination point.
type Op uint8

const (
	// Read issues a blocking single read from the address register; the
	// response lands in rdreg (register 0).
	Read Op = iota
	// Write issues a posted single write of the data register.
	Write
	// BurstRead issues a blocking burst read of Imm beats.
	BurstRead
	// BurstWrite issues a posted burst write of Imm beats, replaying the
	// data register for every beat: the translator loads it with the
	// burst's first recorded beat, as no payload changes a transfer's
	// timing.
	BurstWrite
	// If branches to Imm (instruction index) when the condition holds.
	If
	// Jump branches unconditionally to Imm (instruction index).
	Jump
	// SetRegister loads Imm into Rd.
	SetRegister
	// Idle waits Imm cycles (or the value of Ra when Rb == 1 — the
	// "parameterised wait" of Table 1).
	Idle
	// Halt stops the TG.
	Halt
	opCount
)

var opNames = [opCount]string{
	"Read", "Write", "BurstRead", "BurstWrite", "If", "Jump", "SetRegister", "Idle", "Halt",
}

// String returns the .tgp mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Valid reports whether o is defined.
func (o Op) Valid() bool { return o < opCount }

// Cond enumerates If comparison operators.
type Cond uint8

const (
	// EQ branches when Ra == Rb.
	EQ Cond = iota
	// NE branches when Ra != Rb.
	NE
	// LT branches when Ra < Rb (unsigned).
	LT
	// GE branches when Ra >= Rb (unsigned).
	GE
	condCount
)

var condNames = [condCount]string{"==", "!=", "<", ">="}

// String returns the .tgp operator.
func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return fmt.Sprintf("Cond(%d)", uint8(c))
}

// Valid reports whether c is defined.
func (c Cond) Valid() bool { return c < condCount }

// NumRegs is the TG register-file size. Register 0 is rdreg, the implicit
// destination of Read responses (Figure 3(b): "rdreg ... holds value of
// RD transactions").
const NumRegs = 16

// RdReg is the fixed index of rdreg.
const RdReg = 0

// Inst is one TG instruction.
//
// Field use per opcode:
//
//	Read        Ra=address register
//	Write       Ra=address register, Rb=data register
//	BurstRead   Ra=address register, Imm=beat count
//	BurstWrite  Ra=address register, Rb=data register, Imm=beat count
//	If          Ra,Rb=operands, Cnd=operator, Imm=target instruction index
//	Jump        Imm=target instruction index
//	SetRegister Rd=destination, Imm=value
//	Idle        Imm=cycles, or Ra=register holding cycles when Rb==1
//	Halt        —
//
// Registers are bytes (NumRegs is 16), so an instruction takes 12 bytes
// in memory; a translated reference run holds hundreds of thousands.
type Inst struct {
	Op  Op
	Rd  uint8
	Ra  uint8
	Rb  uint8
	Cnd Cond
	Imm uint32
}

// InstBytes is the encoded instruction size.
const InstBytes = 8

// Encode packs the instruction into 8 bytes:
// op(1) rd/cond(1) ra(1) rb(1) imm(4) little-endian. If does not write a
// register, so its Rd byte carries the condition.
func (i Inst) Encode() [InstBytes]byte {
	var b [InstBytes]byte
	b[0] = byte(i.Op)
	if i.Op == If {
		b[1] = byte(i.Cnd)
	} else {
		b[1] = i.Rd
	}
	b[2] = i.Ra
	b[3] = i.Rb
	b[4] = byte(i.Imm)
	b[5] = byte(i.Imm >> 8)
	b[6] = byte(i.Imm >> 16)
	b[7] = byte(i.Imm >> 24)
	return b
}

// DecodeInst unpacks an encoded instruction; ok is false for invalid
// opcodes, registers or conditions.
func DecodeInst(b [InstBytes]byte) (Inst, bool) {
	i := Inst{
		Op:  Op(b[0]),
		Ra:  b[2],
		Rb:  b[3],
		Imm: uint32(b[4]) | uint32(b[5])<<8 | uint32(b[6])<<16 | uint32(b[7])<<24,
	}
	if i.Op == If {
		i.Cnd = Cond(b[1])
		if !i.Cnd.Valid() {
			return i, false
		}
	} else {
		i.Rd = b[1]
	}
	if !i.Op.Valid() || i.Rd >= NumRegs || i.Ra >= NumRegs || i.Rb >= NumRegs {
		return i, false
	}
	return i, true
}

// Eval applies the condition to two values.
func (c Cond) Eval(a, b uint32) bool {
	switch c {
	case EQ:
		return a == b
	case NE:
		return a != b
	case LT:
		return a < b
	case GE:
		return a >= b
	}
	return false
}
