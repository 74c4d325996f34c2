package core

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Format renders the program as canonical .tgp text (Figure 3(b) style).
// Format(Assemble(x)) is a fixed point: assembling the output reproduces
// the same program.
func (p *Program) Format(w io.Writer) error {
	if err := p.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "; Master Core\n")
	fmt.Fprintf(bw, "MASTER[%d,%d]\n", p.MasterID, p.Thread)
	fmt.Fprintf(bw, "; rdreg (r0) holds the value of RD transactions\n")
	for i := 1; i < len(p.RegNames); i++ {
		fmt.Fprintf(bw, "REGISTER %s 0x%08x\n", p.RegNames[i], p.RegInit[i])
	}
	fmt.Fprintf(bw, "BEGIN\n")

	// Labels by instruction index (sorted for deterministic output).
	byIndex := map[int][]string{}
	for name, idx := range p.Labels {
		byIndex[idx] = append(byIndex[idx], name)
	}
	for _, names := range byIndex {
		sort.Strings(names)
	}
	reg := func(i uint8) string { return p.RegNames[i] }
	target := func(imm uint32) string {
		if names, ok := byIndex[int(imm)]; ok {
			return names[0]
		}
		return strconv.Itoa(int(imm))
	}
	for idx, in := range p.Insts {
		for _, l := range byIndex[idx] {
			fmt.Fprintf(bw, "%s:\n", l)
		}
		switch in.Op {
		case Read:
			fmt.Fprintf(bw, "\tRead(%s)\n", reg(in.Ra))
		case Write:
			fmt.Fprintf(bw, "\tWrite(%s, %s)\n", reg(in.Ra), reg(in.Rb))
		case BurstRead:
			fmt.Fprintf(bw, "\tBurstRead(%s, %d)\n", reg(in.Ra), in.Imm)
		case BurstWrite:
			fmt.Fprintf(bw, "\tBurstWrite(%s, %s, %d)\n", reg(in.Ra), reg(in.Rb), in.Imm)
		case If:
			fmt.Fprintf(bw, "\tIf %s %s %s then %s\n", reg(in.Ra), in.Cnd, reg(in.Rb), target(in.Imm))
		case Jump:
			fmt.Fprintf(bw, "\tJump(%s)\n", target(in.Imm))
		case SetRegister:
			fmt.Fprintf(bw, "\tSetRegister(%s, 0x%08x)\n", reg(in.Rd), in.Imm)
		case Idle:
			if in.Rb == 1 && in.Ra != 0 {
				fmt.Fprintf(bw, "\tIdle(%s)\n", reg(in.Ra))
			} else {
				fmt.Fprintf(bw, "\tIdle(%d)\n", in.Imm)
			}
		case Halt:
			fmt.Fprintf(bw, "\tHalt\n")
		}
	}
	fmt.Fprintf(bw, "END\n")
	return bw.Flush()
}

// TgpError reports a .tgp parse failure.
type TgpError struct {
	Line int
	Msg  string
}

func (e *TgpError) Error() string { return fmt.Sprintf("tgp: line %d: %s", e.Line, e.Msg) }

// Assemble parses .tgp text into a Program.
func Assemble(src string) (*Program, error) {
	p := NewProgram(0, 0)
	type patch struct {
		inst  int
		label string
		line  int
	}
	var patches []patch
	seenBegin, seenEnd := false, false

	lines := strings.Split(src, "\n")
	for ln, raw := range lines {
		line := raw
		if i := strings.Index(line, ";"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		lineNo := ln + 1
		switch {
		case strings.HasPrefix(line, "MASTER["):
			rest := strings.TrimPrefix(line, "MASTER[")
			rest = strings.TrimSuffix(rest, "]")
			parts := strings.Split(rest, ",")
			if len(parts) != 2 {
				return nil, &TgpError{lineNo, "MASTER needs [coreID,thrdID]"}
			}
			id, err1 := strconv.Atoi(strings.TrimSpace(parts[0]))
			th, err2 := strconv.Atoi(strings.TrimSpace(parts[1]))
			if err1 != nil || err2 != nil {
				return nil, &TgpError{lineNo, "bad MASTER ids"}
			}
			p.MasterID, p.Thread = id, th
			continue
		case strings.HasPrefix(line, "REGISTER "):
			fields := strings.Fields(line)
			if len(fields) != 3 {
				return nil, &TgpError{lineNo, "REGISTER needs NAME INIT"}
			}
			v, err := strconv.ParseUint(fields[2], 0, 32)
			if err != nil {
				return nil, &TgpError{lineNo, fmt.Sprintf("bad init %q", fields[2])}
			}
			if _, err := p.AddReg(fields[1], uint32(v)); err != nil {
				return nil, &TgpError{lineNo, err.Error()}
			}
			continue
		case line == "BEGIN":
			seenBegin = true
			continue
		case line == "END":
			seenEnd = true
			continue
		}
		if strings.HasSuffix(line, ":") && !strings.Contains(line, "(") {
			name := strings.TrimSuffix(line, ":")
			if name == "" || strings.ContainsAny(name, " \t") {
				return nil, &TgpError{lineNo, fmt.Sprintf("bad label %q", name)}
			}
			if _, dup := p.Labels[name]; dup {
				return nil, &TgpError{lineNo, fmt.Sprintf("duplicate label %q", name)}
			}
			p.Labels[name] = len(p.Insts)
			continue
		}
		if !seenBegin || seenEnd {
			return nil, &TgpError{lineNo, "instruction outside BEGIN/END"}
		}
		in, lbl, err := parseTgpInst(p, line, lineNo)
		if err != nil {
			return nil, err
		}
		if lbl != "" {
			patches = append(patches, patch{inst: len(p.Insts), label: lbl, line: lineNo})
		}
		p.Insts = append(p.Insts, in)
	}
	if !seenBegin || !seenEnd {
		return nil, fmt.Errorf("tgp: missing BEGIN/END")
	}
	for _, pt := range patches {
		idx, ok := p.Labels[pt.label]
		if !ok {
			// Numeric targets are accepted for round-tripping programs
			// whose labels were stripped (e.g. decoded .bin images).
			if v, err := strconv.Atoi(pt.label); err == nil && v >= 0 {
				idx = v
			} else {
				return nil, &TgpError{pt.line, fmt.Sprintf("undefined label %q", pt.label)}
			}
		}
		p.Insts[pt.inst].Imm = uint32(idx)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// parseTgpInst parses one instruction line; it returns a pending label name
// for branch instructions.
func parseTgpInst(p *Program, line string, lineNo int) (Inst, string, error) {
	reg := func(name string) (uint8, error) {
		name = strings.TrimSpace(name)
		if i, ok := p.RegIndex(name); ok {
			return uint8(i), nil
		}
		return 0, &TgpError{lineNo, fmt.Sprintf("undeclared register %q", name)}
	}

	// "If a != b then label" has its own shape.
	if strings.HasPrefix(line, "If ") || strings.HasPrefix(line, "if ") {
		rest := strings.TrimSpace(line[3:])
		ti := strings.Index(rest, " then ")
		if ti < 0 {
			return Inst{}, "", &TgpError{lineNo, "If needs 'then LABEL'"}
		}
		label := strings.TrimSpace(rest[ti+len(" then "):])
		cond := strings.TrimSpace(rest[:ti])
		var cnd Cond
		var opStr string
		switch {
		case strings.Contains(cond, "!="):
			cnd, opStr = NE, "!="
		case strings.Contains(cond, "=="):
			cnd, opStr = EQ, "=="
		case strings.Contains(cond, ">="):
			cnd, opStr = GE, ">="
		case strings.Contains(cond, "<"):
			cnd, opStr = LT, "<"
		default:
			return Inst{}, "", &TgpError{lineNo, fmt.Sprintf("no comparison operator in %q", cond)}
		}
		parts := strings.SplitN(cond, opStr, 2)
		ra, err := reg(parts[0])
		if err != nil {
			return Inst{}, "", err
		}
		rb, err := reg(parts[1])
		if err != nil {
			return Inst{}, "", err
		}
		return Inst{Op: If, Ra: ra, Rb: rb, Cnd: cnd}, label, nil
	}
	if line == "Halt" || line == "halt" {
		return Inst{Op: Halt}, "", nil
	}

	open := strings.Index(line, "(")
	close := strings.LastIndex(line, ")")
	if open < 0 || close < open {
		return Inst{}, "", &TgpError{lineNo, fmt.Sprintf("malformed instruction %q", line)}
	}
	name := strings.TrimSpace(line[:open])
	var args []string
	if inner := strings.TrimSpace(line[open+1 : close]); inner != "" {
		for _, a := range strings.Split(inner, ",") {
			args = append(args, strings.TrimSpace(a))
		}
	}
	need := func(n int) error {
		if len(args) != n {
			return &TgpError{lineNo, fmt.Sprintf("%s needs %d arguments, got %d", name, n, len(args))}
		}
		return nil
	}
	num := func(s string) (uint32, error) {
		v, err := strconv.ParseUint(s, 0, 32)
		if err != nil {
			return 0, &TgpError{lineNo, fmt.Sprintf("bad number %q", s)}
		}
		return uint32(v), nil
	}
	switch name {
	case "Read":
		if err := need(1); err != nil {
			return Inst{}, "", err
		}
		ra, err := reg(args[0])
		if err != nil {
			return Inst{}, "", err
		}
		return Inst{Op: Read, Ra: ra}, "", nil
	case "Write":
		if err := need(2); err != nil {
			return Inst{}, "", err
		}
		ra, err := reg(args[0])
		if err != nil {
			return Inst{}, "", err
		}
		rb, err := reg(args[1])
		if err != nil {
			return Inst{}, "", err
		}
		return Inst{Op: Write, Ra: ra, Rb: rb}, "", nil
	case "BurstRead":
		if err := need(2); err != nil {
			return Inst{}, "", err
		}
		ra, err := reg(args[0])
		if err != nil {
			return Inst{}, "", err
		}
		n, err := num(args[1])
		if err != nil {
			return Inst{}, "", err
		}
		return Inst{Op: BurstRead, Ra: ra, Imm: n}, "", nil
	case "BurstWrite":
		if err := need(3); err != nil {
			return Inst{}, "", err
		}
		ra, err := reg(args[0])
		if err != nil {
			return Inst{}, "", err
		}
		rb, err := reg(args[1])
		if err != nil {
			return Inst{}, "", err
		}
		n, err := num(args[2])
		if err != nil {
			return Inst{}, "", err
		}
		return Inst{Op: BurstWrite, Ra: ra, Rb: rb, Imm: n}, "", nil
	case "SetRegister":
		if err := need(2); err != nil {
			return Inst{}, "", err
		}
		rd, err := reg(args[0])
		if err != nil {
			return Inst{}, "", err
		}
		v, err := num(args[1])
		if err != nil {
			return Inst{}, "", err
		}
		return Inst{Op: SetRegister, Rd: rd, Imm: v}, "", nil
	case "Idle":
		if err := need(1); err != nil {
			return Inst{}, "", err
		}
		if v, err := strconv.ParseUint(args[0], 0, 32); err == nil {
			return Inst{Op: Idle, Imm: uint32(v)}, "", nil
		}
		ra, err := reg(args[0])
		if err != nil {
			return Inst{}, "", err
		}
		return Inst{Op: Idle, Ra: ra, Rb: 1}, "", nil
	case "Jump":
		if err := need(1); err != nil {
			return Inst{}, "", err
		}
		return Inst{Op: Jump}, args[0], nil
	}
	return Inst{}, "", &TgpError{lineNo, fmt.Sprintf("unknown instruction %q", name)}
}
