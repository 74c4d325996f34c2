package cpu

import (
	"fmt"
	"strconv"
	"strings"
)

// Program is an assembled miniARM image.
type Program struct {
	// Base is the load address of Words[0].
	Base uint32
	// Words is the little-endian word image (code and data).
	Words []uint32
	// Entry is the reset program counter.
	Entry uint32
	// Symbols maps labels and .equ names to their values.
	Symbols map[string]uint32
}

// AsmError describes an assembly failure with its source line.
type AsmError struct {
	Line int
	Msg  string
}

func (e *AsmError) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

type asmItem struct {
	line    int
	addr    uint32
	inst    *instTemplate // nil for data words
	data    []uint32
	dataExp []string // unresolved .word expressions (parallel to data; "" = literal)
}

type instTemplate struct {
	op     Op
	rd, ra int
	rb     int
	imm    uint32
	immExp string // unresolved immediate expression, "" if imm is final
}

// Assemble translates miniARM assembly into a Program loaded at base.
// Syntax:
//
//	label:                 ; labels (own line or before an instruction)
//	.org ADDR              ; move the location counter (absolute address)
//	.word EXPR, EXPR...    ; literal data words
//	.space N               ; N zero bytes (word aligned)
//	.equ NAME EXPR         ; symbolic constant
//	add r1, r2, r3         ; instructions per isa.go, immediates may be
//	ldi r4, table+8        ; numbers, labels, or label±offset
//	ldr r5, [r4+4]
//
// Comments start with ';' or '//'. The entry point is base (or the label
// `start` if defined).
func Assemble(src string, base uint32) (*Program, error) {
	if base%4 != 0 {
		return nil, fmt.Errorf("asm: base %#x not word aligned", base)
	}
	syms := map[string]uint32{}
	loc := base

	lines := strings.Split(src, "\n")
	// At most one item per line: one allocation instead of a doubling chain.
	items := make([]asmItem, 0, len(lines))
	for ln, raw := range lines {
		line := stripComment(raw)
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// Labels (possibly several, possibly followed by an instruction).
		for {
			i := strings.Index(line, ":")
			if i < 0 || strings.ContainsAny(line[:i], " \t,[") {
				break
			}
			name := strings.TrimSpace(line[:i])
			if !validIdent(name) {
				return nil, &AsmError{ln + 1, fmt.Sprintf("bad label %q", name)}
			}
			if _, dup := syms[name]; dup {
				return nil, &AsmError{ln + 1, fmt.Sprintf("duplicate symbol %q", name)}
			}
			syms[name] = loc
			line = strings.TrimSpace(line[i+1:])
			if line == "" {
				break
			}
		}
		if line == "" {
			continue
		}
		item, size, err := parseLine(line, ln+1, loc, syms)
		if err != nil {
			return nil, err
		}
		if item != nil {
			items = append(items, *item)
		}
		loc += size
	}

	// Second pass: resolve expressions and emit.
	end := base
	for _, it := range items {
		sz := uint32(len(it.data) * 4)
		if it.inst != nil {
			sz = InstBytes
		}
		if it.addr+sz > end {
			end = it.addr + sz
		}
	}
	words := make([]uint32, (end-base)/4)
	for _, it := range items {
		idx := (it.addr - base) / 4
		if it.inst != nil {
			t := it.inst
			imm := t.imm
			if t.immExp != "" {
				v, err := evalExpr(t.immExp, syms)
				if err != nil {
					return nil, &AsmError{it.line, err.Error()}
				}
				imm = v
			}
			w0, w1 := Inst{Op: t.op, Rd: t.rd, Ra: t.ra, Rb: t.rb, Imm: imm}.Encode()
			words[idx] = w0
			words[idx+1] = w1
			continue
		}
		for k, v := range it.data {
			if it.dataExp[k] != "" {
				ev, err := evalExpr(it.dataExp[k], syms)
				if err != nil {
					return nil, &AsmError{it.line, err.Error()}
				}
				v = ev
			}
			words[idx+uint32(k)] = v
		}
	}

	entry := base
	if v, ok := syms["start"]; ok {
		entry = v
	}
	return &Program{Base: base, Words: words, Entry: entry, Symbols: syms}, nil
}

func stripComment(s string) string {
	if i := strings.Index(s, ";"); i >= 0 {
		s = s[:i]
	}
	if i := strings.Index(s, "//"); i >= 0 {
		s = s[:i]
	}
	return s
}

func validIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == '.':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// parseLine handles one directive or instruction, returning the emitted item
// (nil for .equ/.org) and the size it occupies.
func parseLine(line string, ln int, loc uint32, syms map[string]uint32) (*asmItem, uint32, error) {
	fields := strings.Fields(line)
	mnemonic := strings.ToLower(fields[0])
	rest := strings.TrimSpace(line[len(fields[0]):])

	switch mnemonic {
	case ".org":
		v, err := evalExpr(rest, syms)
		if err != nil {
			return nil, 0, &AsmError{ln, err.Error()}
		}
		if v < loc {
			return nil, 0, &AsmError{ln, fmt.Sprintf(".org %#x moves backwards from %#x", v, loc)}
		}
		if v%4 != 0 {
			return nil, 0, &AsmError{ln, ".org must be word aligned"}
		}
		return nil, v - loc, nil
	case ".align":
		v, err := evalExpr(rest, syms)
		if err != nil {
			return nil, 0, &AsmError{ln, err.Error()}
		}
		if v == 0 || v%4 != 0 {
			return nil, 0, &AsmError{ln, ".align must be a non-zero word multiple"}
		}
		pad := (v - loc%v) % v
		// The padding words stay zero, which decodes as NOP, so a
		// fall-through path across the alignment gap is executable.
		return nil, pad, nil
	case ".equ":
		parts := strings.Fields(rest)
		if len(parts) < 2 {
			return nil, 0, &AsmError{ln, ".equ needs NAME EXPR"}
		}
		if !validIdent(parts[0]) {
			return nil, 0, &AsmError{ln, fmt.Sprintf("bad .equ name %q", parts[0])}
		}
		v, err := evalExpr(strings.Join(parts[1:], " "), syms)
		if err != nil {
			return nil, 0, &AsmError{ln, err.Error()}
		}
		if _, dup := syms[parts[0]]; dup {
			return nil, 0, &AsmError{ln, fmt.Sprintf("duplicate symbol %q", parts[0])}
		}
		syms[parts[0]] = v
		return nil, 0, nil
	case ".word":
		var data []uint32
		var exps []string
		for _, f := range strings.Split(rest, ",") {
			f = strings.TrimSpace(f)
			if f == "" {
				return nil, 0, &AsmError{ln, "empty .word operand"}
			}
			if v, err := evalExpr(f, syms); err == nil {
				data = append(data, v)
				exps = append(exps, "")
			} else {
				data = append(data, 0)
				exps = append(exps, f) // resolve in pass 2 (forward refs)
			}
		}
		return &asmItem{line: ln, addr: loc, data: data, dataExp: exps}, uint32(len(data) * 4), nil
	case ".space":
		v, err := evalExpr(rest, syms)
		if err != nil {
			return nil, 0, &AsmError{ln, err.Error()}
		}
		if v%4 != 0 {
			return nil, 0, &AsmError{ln, ".space must be a word multiple"}
		}
		n := v / 4
		return &asmItem{line: ln, addr: loc, data: make([]uint32, n), dataExp: make([]string, n)}, v, nil
	}

	t, err := parseInst(mnemonic, rest, ln)
	if err != nil {
		return nil, 0, err
	}
	return &asmItem{line: ln, addr: loc, inst: t}, InstBytes, nil
}

var opByName = func() map[string]Op {
	m := make(map[string]Op, opCount)
	for o := Op(0); o < opCount; o++ {
		m[o.String()] = o
	}
	return m
}()

func parseInst(mnemonic, rest string, ln int) (*instTemplate, error) {
	op, ok := opByName[mnemonic]
	if !ok {
		return nil, &AsmError{ln, fmt.Sprintf("unknown mnemonic %q", mnemonic)}
	}
	args := splitArgs(rest)
	t := &instTemplate{op: op}
	need := func(n int) error {
		if len(args) != n {
			return &AsmError{ln, fmt.Sprintf("%s needs %d operands, got %d", mnemonic, n, len(args))}
		}
		return nil
	}
	reg := func(s string) (int, error) {
		s = strings.ToLower(strings.TrimSpace(s))
		if !strings.HasPrefix(s, "r") {
			return 0, &AsmError{ln, fmt.Sprintf("expected register, got %q", s)}
		}
		n, err := strconv.Atoi(s[1:])
		if err != nil || n < 0 || n > 15 {
			return 0, &AsmError{ln, fmt.Sprintf("bad register %q", s)}
		}
		return n, nil
	}
	imm := func(s string) { t.immExp = strings.TrimSpace(s) }

	var err error
	switch op {
	case NOP, HALT:
		return t, need(0)
	case LDI:
		if err = need(2); err != nil {
			return nil, err
		}
		if t.rd, err = reg(args[0]); err != nil {
			return nil, err
		}
		imm(args[1])
	case MOV:
		if err = need(2); err != nil {
			return nil, err
		}
		if t.rd, err = reg(args[0]); err != nil {
			return nil, err
		}
		if t.ra, err = reg(args[1]); err != nil {
			return nil, err
		}
	case ADD, SUB, MUL, AND, OR, XOR, SHL, SHR, ROR:
		if err = need(3); err != nil {
			return nil, err
		}
		if t.rd, err = reg(args[0]); err != nil {
			return nil, err
		}
		if t.ra, err = reg(args[1]); err != nil {
			return nil, err
		}
		if t.rb, err = reg(args[2]); err != nil {
			return nil, err
		}
	case ADDI, SUBI, ANDI, ORI, XORI, SHLI, SHRI, RORI:
		if err = need(3); err != nil {
			return nil, err
		}
		if t.rd, err = reg(args[0]); err != nil {
			return nil, err
		}
		if t.ra, err = reg(args[1]); err != nil {
			return nil, err
		}
		imm(args[2])
	case BEQ, BNE, BLT, BGE, BLTU, BGEU:
		if err = need(3); err != nil {
			return nil, err
		}
		if t.ra, err = reg(args[0]); err != nil {
			return nil, err
		}
		if t.rb, err = reg(args[1]); err != nil {
			return nil, err
		}
		imm(args[2])
	case JMP:
		if err = need(1); err != nil {
			return nil, err
		}
		imm(args[0])
	case JAL:
		if err = need(2); err != nil {
			return nil, err
		}
		if t.rd, err = reg(args[0]); err != nil {
			return nil, err
		}
		imm(args[1])
	case JR:
		if err = need(1); err != nil {
			return nil, err
		}
		if t.ra, err = reg(args[0]); err != nil {
			return nil, err
		}
	case LDR, STR:
		if err = need(2); err != nil {
			return nil, err
		}
		if t.rd, err = reg(args[0]); err != nil {
			return nil, err
		}
		base, off, perr := parseMemOperand(args[1], ln)
		if perr != nil {
			return nil, perr
		}
		if t.ra, err = reg(base); err != nil {
			return nil, err
		}
		imm(off)
	default:
		return nil, &AsmError{ln, fmt.Sprintf("unhandled opcode %v", op)}
	}
	return t, nil
}

// splitArgs splits on commas that are not inside brackets.
func splitArgs(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	var args []string
	depth := 0
	start := 0
	for i, r := range s {
		switch r {
		case '[':
			depth++
		case ']':
			depth--
		case ',':
			if depth == 0 {
				args = append(args, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	args = append(args, strings.TrimSpace(s[start:]))
	return args
}

// parseMemOperand handles "[rN+EXPR]", "[rN-NUM]" and "[rN]".
func parseMemOperand(s string, ln int) (base, off string, err error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return "", "", &AsmError{ln, fmt.Sprintf("bad memory operand %q", s)}
	}
	inner := s[1 : len(s)-1]
	if i := strings.IndexAny(inner, "+-"); i > 0 {
		off = strings.TrimSpace(inner[i:])
		if strings.HasPrefix(off, "+") {
			off = off[1:]
		}
		return strings.TrimSpace(inner[:i]), off, nil
	}
	return strings.TrimSpace(inner), "0", nil
}

// evalExpr evaluates NUM, SYM, SYM+NUM, SYM-NUM, NUM*NUM (left to right, no
// precedence — sufficient for assembler operands).
func evalExpr(s string, syms map[string]uint32) (uint32, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, fmt.Errorf("empty expression")
	}
	// Tokenise into terms and operators.
	var total uint32
	op := byte('+')
	for len(s) > 0 {
		j := 0
		for j < len(s) && s[j] != '+' && s[j] != '-' && s[j] != '*' {
			j++
		}
		// Allow a leading minus on the first term.
		if j == 0 && s[0] == '-' && total == 0 && op == '+' {
			j = 1
			for j < len(s) && s[j] != '+' && s[j] != '-' && s[j] != '*' {
				j++
			}
		}
		term := strings.TrimSpace(s[:j])
		v, err := evalTerm(term, syms)
		if err != nil {
			return 0, err
		}
		switch op {
		case '+':
			total += v
		case '-':
			total -= v
		case '*':
			total *= v
		}
		if j >= len(s) {
			break
		}
		op = s[j]
		s = s[j+1:]
	}
	return total, nil
}

func evalTerm(term string, syms map[string]uint32) (uint32, error) {
	if term == "" {
		return 0, fmt.Errorf("empty term")
	}
	if v, ok := syms[term]; ok {
		return v, nil
	}
	if n, err := strconv.ParseInt(term, 0, 64); err == nil {
		return uint32(n), nil
	}
	return 0, fmt.Errorf("undefined symbol or bad number %q", term)
}
