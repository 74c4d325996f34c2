// Package prog provides the four MPARM benchmarks of the paper's Table 2 —
// SP matrix, Cacheloop, MP matrix and DES — rewritten as SPMD miniARM
// assembly programs, together with pure-Go reference implementations used
// to validate the simulated results functionally.
//
// Every program follows two rules that the paper's TG methodology depends
// on (core.Translate's doc says how the translator uses them):
//
//  1. values written to memory are functions of the writing core's own
//     deterministic computation (so recorded write-data is
//     interconnect-independent, making translated TG programs identical
//     across fabrics), and
//  2. cross-core synchronisation happens only through hardware semaphores
//     and monotonic shared flag words that are polled until a stable target
//     value (so the translator can always collapse them into reactive poll
//     loops).
package prog

import (
	"fmt"
	"strings"

	"noctg/internal/cpu"
	"noctg/internal/layout"
)

// Spec is one runnable benchmark: an SPMD source assembled once per core at
// that core's private base, plus the metadata the platform and translator
// need.
type Spec struct {
	// Name identifies the benchmark ("spmatrix", "cacheloop", …).
	Name string
	// Cores is the number of processors.
	Cores int
	// Source is the SPMD assembly; cores branch on r15 (core ID).
	Source string
	// PollWords lists shared flag addresses that programs poll; the
	// translator turns reads of these (and of the semaphore bank) into
	// reactive loops.
	PollWords []uint32
	// MaxCycles bounds a simulation of this spec.
	MaxCycles uint64
	// Validate checks functional correctness after a run, reading memory
	// through peek; syms is core 0's symbol table.
	Validate func(peek func(uint32) uint32, syms map[string]uint32) error
}

// Bench builds the named benchmark on cores processors, size being its
// one size parameter (spmatrix runs on one core); an out-of-range value
// returns the error the named constructor panics with.
func Bench(name string, cores, size int) (*Spec, error) {
	build, ok := benches[name]
	if !ok {
		return nil, fmt.Errorf("prog: unknown benchmark %q", name)
	}
	return build(cores, size)
}

var benches = map[string]func(cores, size int) (*Spec, error){
	"spmatrix":  func(_, n int) (*Spec, error) { return spmatrix(n) },
	"cacheloop": cacheloop, "mpmatrix": mpmatrix, "des": des, "pipeline": pipeline,
}

// must is the exported constructors' panic on an out-of-range size.
func must(s *Spec, err error) *Spec {
	if err != nil {
		panic(err)
	}
	return s
}

// Assemble produces one program per core, each loaded at its private base.
func (s *Spec) Assemble() ([]*cpu.Program, error) {
	progs := make([]*cpu.Program, s.Cores)
	for i := 0; i < s.Cores; i++ {
		p, err := cpu.Assemble(s.Source, layout.PrivBaseFor(i))
		if err != nil {
			return nil, fmt.Errorf("prog %s core %d: %w", s.Name, i, err)
		}
		progs[i] = p
	}
	return progs, nil
}

// Shared-memory word offsets common to the multiprocessor benchmarks.
const (
	offReady    = 0x00 // init-done flag, set by core 0
	offTick     = 0x08 // scratch word read inside critical sections
	offComplete = 0x0c // final status word written by core 0
	offDone     = 0x10 // per-core done flags (offDone + 4·id)
	offSums     = 0x80 // per-core checksum slots
	offProgress = 0xc0 // per-core progress slots
	offData     = 0x1000
)

func sharedAddr(off uint32) uint32 { return layout.SharedBase + off }

// completeMagic is the value core 0 publishes when a run finished cleanly.
const completeMagic = 0xC0DE

// Poll-loop periods of the benchmark programs on the reference core
// (response→re-poll, in cycles). These are supplied to the translator as
// platform knowledge so that translation never depends on how many polls a
// particular interconnect happened to need (see core.PollRange.Gap). They
// are pinned by exp.TestPollGapMatchesMeasuredConstant.
const (
	// SemPollGap is the semaphore-acquire loop period (ldr/bne, with the
	// comparison value hoisted out of the loop).
	SemPollGap = 8
	// FlagPollGap is the barrier-flag loop period (ldr/bne).
	FlagPollGap = 8
)

// pollWordsForCores returns ready + per-core done flag addresses.
func pollWordsForCores(cores int) []uint32 {
	ws := []uint32{sharedAddr(offReady)}
	for i := 0; i < cores; i++ {
		ws = append(ws, sharedAddr(offDone+uint32(4*i)))
	}
	return ws
}

// asmWords renders values as .word directives, eight per line.
func asmWords(vals []uint32) string {
	var b strings.Builder
	for i := 0; i < len(vals); i += 8 {
		end := i + 8
		if end > len(vals) {
			end = len(vals)
		}
		b.WriteString("\t.word ")
		for j := i; j < end; j++ {
			if j > i {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%#x", vals[j])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// corePrivAddr translates a core-0 private symbol to core id's image (the
// SPMD sources are identical, so offsets match).
func corePrivAddr(id int, sym0 uint32) uint32 {
	return layout.PrivBaseFor(id) + (sym0 - layout.PrivBase)
}

// checkWord is a Validate helper.
func checkWord(peek func(uint32) uint32, addr uint32, want uint32, what string) error {
	if got := peek(addr); got != want {
		return fmt.Errorf("%s: mem[%#08x] = %#x, want %#x", what, addr, got, want)
	}
	return nil
}
