package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
)

// Program is a TG program: register declarations plus an instruction
// stream. It is produced by the translator or by assembling .tgp text, and
// executed by the TG Device (or serialised to a .bin image, the form that
// would be loaded into a hardware TG's instruction memory).
type Program struct {
	// MasterID and Thread identify the emulated core (the .tgp
	// MASTER[coreID,thrdID] header).
	MasterID int
	Thread   int
	// RegNames holds the declared register names; index 0 is always
	// "rdreg". RegInit holds the matching initial values.
	RegNames []string
	RegInit  []uint32
	// Insts is the instruction stream. Branch targets are instruction
	// indices.
	Insts []Inst
	// Labels maps label names to instruction indices (for formatting).
	Labels map[string]int
}

// NewProgram returns an empty program with rdreg predeclared.
func NewProgram(masterID, thread int) *Program {
	return &Program{
		MasterID: masterID,
		Thread:   thread,
		RegNames: []string{"rdreg"},
		RegInit:  []uint32{0},
		Labels:   map[string]int{},
	}
}

// AddReg declares a register and returns its index.
func (p *Program) AddReg(name string, init uint32) (int, error) {
	if len(p.RegNames) >= NumRegs {
		return 0, fmt.Errorf("core: register file full (%d registers)", NumRegs)
	}
	for _, n := range p.RegNames {
		if n == name {
			return 0, fmt.Errorf("core: duplicate register %q", name)
		}
	}
	p.RegNames = append(p.RegNames, name)
	p.RegInit = append(p.RegInit, init)
	return len(p.RegNames) - 1, nil
}

// RegIndex looks a register name up.
func (p *Program) RegIndex(name string) (int, bool) {
	for i, n := range p.RegNames {
		if n == name {
			return i, true
		}
	}
	return 0, false
}

// Validate checks structural invariants: branch targets in range, register
// indices declared, counts positive.
func (p *Program) Validate() error {
	n := len(p.Insts)
	regs := len(p.RegNames)
	for idx, in := range p.Insts {
		if !in.Op.Valid() {
			return fmt.Errorf("core: inst %d: invalid opcode", idx)
		}
		if int(in.Rd) >= regs || int(in.Ra) >= regs || int(in.Rb) >= regs {
			return fmt.Errorf("core: inst %d (%v): register out of range", idx, in.Op)
		}
		switch in.Op {
		case If, Jump:
			if int(in.Imm) >= n {
				return fmt.Errorf("core: inst %d (%v): target %d out of range", idx, in.Op, in.Imm)
			}
		case BurstRead, BurstWrite:
			if in.Imm < 1 {
				return fmt.Errorf("core: inst %d (%v): burst count must be >= 1", idx, in.Op)
			}
		}
	}
	if len(p.RegNames) != len(p.RegInit) {
		return fmt.Errorf("core: register name/init length mismatch")
	}
	return nil
}

// binMagic identifies .bin images ("TGBIN1\0\0").
var binMagic = [8]byte{'T', 'G', 'B', 'I', 'N', '1', 0, 0}

// WriteBin serialises the program as a .bin image:
//
//	magic[8] masterID[u32] thread[u32] nregs[u32] {init[u32]}... ninst[u32]
//	{inst[8]}...
//
// Register names and labels are symbolic-only and not part of the image,
// exactly as an assembled binary for a hardware TG would drop them.
func (p *Program) WriteBin(w io.Writer) error {
	if err := p.Validate(); err != nil {
		return err
	}
	var buf bytes.Buffer
	buf.Write(binMagic[:])
	le := binary.LittleEndian
	var u [4]byte
	put := func(v uint32) {
		le.PutUint32(u[:], v)
		buf.Write(u[:])
	}
	put(uint32(p.MasterID))
	put(uint32(p.Thread))
	put(uint32(len(p.RegInit)))
	for _, v := range p.RegInit {
		put(v)
	}
	put(uint32(len(p.Insts)))
	for _, in := range p.Insts {
		b := in.Encode()
		buf.Write(b[:])
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// ReadBin parses a .bin image. Register names are reconstructed as
// rdreg, r1, r2…
func ReadBin(r io.Reader) (*Program, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(data) < 8+16 || !bytes.Equal(data[:8], binMagic[:]) {
		return nil, fmt.Errorf("core: not a TGBIN1 image")
	}
	le := binary.LittleEndian
	off := 8
	next := func() (uint32, error) {
		if off+4 > len(data) {
			return 0, fmt.Errorf("core: truncated .bin image at offset %d", off)
		}
		v := le.Uint32(data[off:])
		off += 4
		return v, nil
	}
	master, err := next()
	if err != nil {
		return nil, err
	}
	thread, err := next()
	if err != nil {
		return nil, err
	}
	nregs, err := next()
	if err != nil {
		return nil, err
	}
	if nregs < 1 || nregs > NumRegs {
		return nil, fmt.Errorf("core: .bin declares %d registers", nregs)
	}
	p := &Program{MasterID: int(master), Thread: int(thread), Labels: map[string]int{}}
	for i := uint32(0); i < nregs; i++ {
		v, err := next()
		if err != nil {
			return nil, err
		}
		name := "rdreg"
		if i > 0 {
			name = fmt.Sprintf("r%d", i)
		}
		p.RegNames = append(p.RegNames, name)
		p.RegInit = append(p.RegInit, v)
	}
	ninst, err := next()
	if err != nil {
		return nil, err
	}
	if off+int(ninst)*InstBytes > len(data) {
		return nil, fmt.Errorf("core: truncated .bin image: %d instructions declared", ninst)
	}
	for i := uint32(0); i < ninst; i++ {
		var b [InstBytes]byte
		copy(b[:], data[off:off+InstBytes])
		off += InstBytes
		in, ok := DecodeInst(b)
		if !ok {
			return nil, fmt.Errorf("core: .bin instruction %d invalid", i)
		}
		p.Insts = append(p.Insts, in)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
