// Package cpu implements miniARM, the in-order multi-cycle 32-bit RISC core
// that stands in for the paper's ARMv7 IP cores, together with its assembler
// and disassembler. The core fetches through an I-cache and accesses data
// through a D-cache / uncached OCP path (see internal/cache), so it produces
// exactly the traffic classes the paper's TG must replay: burst cache
// refills, blocking single reads, posted writes, and semaphore polling.
//
// Instructions are 64 bits: word0 = op<<24 | rd<<16 | ra<<8 | rb, word1 =
// a 32-bit immediate. The generous encoding keeps the assembler and the
// benchmarks readable; the cost (two-word fetches) only adds I-cache
// pressure, which is realistic traffic anyway.
package cpu

import "fmt"

// Op enumerates miniARM opcodes.
type Op uint8

const (
	NOP Op = iota
	HALT
	LDI  // rd = imm
	MOV  // rd = ra
	ADD  // rd = ra + rb
	ADDI // rd = ra + imm
	SUB  // rd = ra - rb
	SUBI // rd = ra - imm
	MUL  // rd = ra * rb (3-cycle)
	AND  // rd = ra & rb
	ANDI // rd = ra & imm
	OR   // rd = ra | rb
	ORI  // rd = ra | imm
	XOR  // rd = ra ^ rb
	XORI // rd = ra ^ imm
	SHL  // rd = ra << (rb & 31)
	SHLI // rd = ra << (imm & 31)
	SHR  // rd = ra >> (rb & 31), logical
	SHRI // rd = ra >> (imm & 31), logical
	ROR  // rd = ra rotated right by rb & 31
	RORI // rd = ra rotated right by imm & 31
	BEQ  // if ra == rb: pc = imm
	BNE  // if ra != rb: pc = imm
	BLT  // if int32(ra) < int32(rb): pc = imm
	BGE  // if int32(ra) >= int32(rb): pc = imm
	BLTU // if ra < rb: pc = imm
	BGEU // if ra >= rb: pc = imm
	JMP  // pc = imm
	JAL  // rd = pc + 8; pc = imm
	JR   // pc = ra
	LDR  // rd = mem[ra + imm]
	STR  // mem[ra + imm] = rd
	opCount
)

var opNames = [opCount]string{
	"nop", "halt", "ldi", "mov", "add", "addi", "sub", "subi", "mul",
	"and", "andi", "or", "ori", "xor", "xori", "shl", "shli", "shr", "shri",
	"ror", "rori", "beq", "bne", "blt", "bge", "bltu", "bgeu",
	"jmp", "jal", "jr", "ldr", "str",
}

// String returns the assembler mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Valid reports whether o is a defined opcode.
func (o Op) Valid() bool { return o < opCount }

// execCycles is the execute-stage latency per opcode (fetch and memory
// stages add their own cycles), indexed by any Op value; 0 stands for 1.
var execCycles = [256]uint8{
	MUL: 3,
	BEQ: 2, BNE: 2, BLT: 2, BGE: 2, BLTU: 2, BGEU: 2,
	JMP: 2, JAL: 2, JR: 2,
}

// ExecCycles returns the execute-stage latency of op (default 1).
func ExecCycles(op Op) int { return max(1, int(execCycles[op])) }

// Inst is a decoded instruction.
type Inst struct {
	Op         Op
	Rd, Ra, Rb int
	Imm        uint32
}

// InstBytes is the size of one encoded instruction.
const InstBytes = 8

// Encode packs the instruction into its two words.
func (i Inst) Encode() (w0, w1 uint32) {
	return uint32(i.Op)<<24 | uint32(i.Rd&0xff)<<16 | uint32(i.Ra&0xff)<<8 | uint32(i.Rb&0xff), i.Imm
}

// decode unpacks an instruction into i field by field: the core decodes
// into its own Inst, and a whole-struct copy through the stack would stall
// on reading back the opcode byte as a word.
func (i *Inst) decode(w0, w1 uint32) bool {
	i.Op, i.Rd, i.Ra, i.Rb, i.Imm = Op(w0>>24), int(w0>>16&0xff), int(w0>>8&0xff), int(w0&0xff), w1
	return decodes(w0)
}

// decodes reports whether an instruction whose first word is w0 decodes:
// a valid opcode and three valid register numbers.
func decodes(w0 uint32) bool {
	return Op(w0>>24).Valid() && w0>>16&0xff <= 15 && w0>>8&0xff <= 15 && w0&0xff <= 15
}

// String renders the instruction in assembler syntax.
func (i Inst) String() string {
	switch i.Op {
	case NOP, HALT:
		return i.Op.String()
	case LDI:
		return fmt.Sprintf("ldi r%d, %#x", i.Rd, i.Imm)
	case MOV:
		return fmt.Sprintf("mov r%d, r%d", i.Rd, i.Ra)
	case ADD, SUB, MUL, AND, OR, XOR, SHL, SHR, ROR:
		return fmt.Sprintf("%s r%d, r%d, r%d", i.Op, i.Rd, i.Ra, i.Rb)
	case ADDI, SUBI, ANDI, ORI, XORI, SHLI, SHRI, RORI:
		return fmt.Sprintf("%s r%d, r%d, %#x", i.Op, i.Rd, i.Ra, i.Imm)
	case BEQ, BNE, BLT, BGE, BLTU, BGEU:
		return fmt.Sprintf("%s r%d, r%d, %#x", i.Op, i.Ra, i.Rb, i.Imm)
	case JMP:
		return fmt.Sprintf("jmp %#x", i.Imm)
	case JAL:
		return fmt.Sprintf("jal r%d, %#x", i.Rd, i.Imm)
	case JR:
		return fmt.Sprintf("jr r%d", i.Ra)
	case LDR:
		return fmt.Sprintf("ldr r%d, [r%d+%#x]", i.Rd, i.Ra, i.Imm)
	case STR:
		return fmt.Sprintf("str r%d, [r%d+%#x]", i.Rd, i.Ra, i.Imm)
	}
	return fmt.Sprintf("%s ?", i.Op)
}
