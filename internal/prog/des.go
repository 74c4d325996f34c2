package prog

import (
	"fmt"
	"strings"

	"noctg/internal/layout"
)

// DES is the paper's encryption benchmark: each core encrypts its own share
// of two-word blocks with a 16-round table-driven Feistel cipher. The
// SP-tables and key schedule live in cacheable private memory (the tables
// exceed the D-cache, so lookups produce a steady stream of refills, just
// like real table-driven DES); plaintext and ciphertext live in shared
// memory; and each finished block passes through a semaphore-protected
// progress update, which provides the synchronisation contention the paper
// stresses (Table 2, "DES").
func DES(cores, blocksPerCore int) *Spec { return must(des(cores, blocksPerCore)) }

func des(cores, blocksPerCore int) (*Spec, error) {
	if cores < 1 || cores > 16 || blocksPerCore < 1 || blocksPerCore > 256 {
		return nil, fmt.Errorf("prog: DES cores=%d blocks=%d invalid", cores, blocksPerCore)
	}
	sptab, ks := desTables()

	ready := sharedAddr(offReady)
	tick := sharedAddr(offTick)
	complete := sharedAddr(offComplete)
	done := sharedAddr(offDone)
	progress := sharedAddr(offProgress)
	pt := sharedAddr(offData)
	totalWords := cores * blocksPerCore * 2
	ct := pt + uint32(totalWords*4)
	sem0 := layout.SemAddr(0)

	// Flatten the tables into .word data.
	var ksWords, spWords []uint32
	for r := 0; r < 16; r++ {
		for g := 0; g < 8; g++ {
			ksWords = append(ksWords, ks[r][g])
		}
	}
	for g := 0; g < 8; g++ {
		for i := 0; i < 64; i++ {
			spWords = append(spWords, sptab[g][i])
		}
	}

	// The eight expansion groups are unrolled: group g uses a 4g-bit rotate
	// of R, the g-th round-key chunk and the g-th SP-table.
	var groups strings.Builder
	for g := 0; g < 8; g++ {
		fmt.Fprintf(&groups, `
	rori r9, r5, %d
	andi r9, r9, 0x3f
	ldr r10, [r7+%d]
	xor r9, r9, r10
	shli r9, r9, 2
	ldi r10, sptab+%d
	add r10, r10, r9
	ldr r10, [r10+0]
	or r6, r6, r10
`, (4*g)%32, 4*g, g*256)
	}

	src := fmt.Sprintf(`
; DES: per-core block encryption with per-block semaphore progress ticks.
	.equ ncores %d
	.equ blocks %d
	.equ ready %#x
	.equ tick %#x
	.equ complete %#x
	.equ doneflags %#x
	.equ progress %#x
	.equ pt %#x
	.equ ct %#x
	.equ sem0 %#x
	.equ totalwords %d
start:
	ldi r1, ready
	ldi r2, 1
	ldi r3, 0
	bne r15, r3, wait_ready
	; ---- core 0 writes the plaintext for every core ----
	ldi r4, pt
	ldi r5, 0
	ldi r6, totalwords
ipt:
	ldi r7, 0x9E3779B1
	mul r7, r5, r7
	xori r7, r7, 0x5A5A5A5A
	str r7, [r4+0]
	addi r4, r4, 4
	addi r5, r5, 1
	bne r5, r6, ipt
	ldi r1, ready
	ldi r2, 1
	str r2, [r1+0]
	jmp main
	; Single-line aligned poll loops; see mpmatrix.go.
	.align 16
wait_ready:
	ldr r3, [r1+0]
	bne r3, r2, wait_ready
main:
	ldi r13, 0            ; block index
blockloop:
	; ---- load my block: pt + (id·blocks + b)·8 ----
	ldi r9, blocks
	mul r9, r15, r9
	add r9, r9, r13
	shli r9, r9, 3
	ldi r10, pt
	add r10, r10, r9
	ldr r4, [r10+0]       ; L
	ldr r5, [r10+4]       ; R
	; ---- 16 Feistel rounds ----
	ldi r7, ks
	ldi r8, 16
round:
	ldi r6, 0
%s	xor r9, r4, r6
	mov r4, r5
	mov r5, r9
	addi r7, r7, 32
	subi r8, r8, 1
	ldi r9, 0
	bne r8, r9, round
	; ---- store ciphertext ----
	ldi r9, blocks
	mul r9, r15, r9
	add r9, r9, r13
	shli r9, r9, 3
	ldi r10, ct
	add r10, r10, r9
	str r4, [r10+0]
	str r5, [r10+4]
	; ---- per-block progress critical section ----
	ldi r1, sem0
	ldi r3, 1
	.align 16
acq:
	ldr r2, [r1+0]
	bne r2, r3, acq
	ldi r2, tick
	ldr r3, [r2+0]        ; shared read (value unused)
	ldi r2, progress
	mov r3, r15
	shli r3, r3, 2
	add r2, r2, r3
	mov r3, r15
	shli r3, r3, 16
	addi r9, r13, 1
	or r3, r3, r9
	str r3, [r2+0]        ; progress[id] = id<<16 | blocks-finished
	ldi r1, sem0
	ldi r2, 1
	str r2, [r1+0]
	; ---- next block ----
	addi r13, r13, 1
	ldi r9, blocks
	bne r13, r9, blockloop
	; ---- done flag ----
	ldi r1, doneflags
	mov r2, r15
	shli r2, r2, 2
	add r1, r1, r2
	ldi r2, 1
	str r2, [r1+0]
	ldi r3, 0
	bne r15, r3, fin
	ldi r4, doneflags
	ldi r5, 0
wall:
	ldi r6, ncores
	beq r5, r6, alldone
	ldi r2, 1
	.align 16
wflag:
	ldr r3, [r4+0]
	bne r3, r2, wflag
	addi r4, r4, 4
	addi r5, r5, 1
	jmp wall
alldone:
	ldi r1, complete
	ldi r2, %#x
	str r2, [r1+0]
fin:
	halt
ks:
%s
sptab:
%s
`, cores, blocksPerCore, ready, tick, complete, done, progress, pt, ct, sem0,
		totalWords, groups.String(), completeMagic, asmWords(ksWords), asmWords(spWords))

	return &Spec{
		Name:      "des",
		Cores:     cores,
		Source:    src,
		PollWords: pollWordsForCores(cores),
		MaxCycles: uint64(cores)*uint64(blocksPerCore)*60_000 + 2_000_000,
		Validate: func(peek func(uint32) uint32, syms map[string]uint32) error {
			for w := 0; w < totalWords; w += 2 {
				l := desPlainWord(uint32(w))
				r := desPlainWord(uint32(w + 1))
				cl, cr := refDESBlock(l, r, &sptab, &ks)
				if err := checkWord(peek, ct+uint32(4*w), cl, fmt.Sprintf("des CT[%d]", w)); err != nil {
					return err
				}
				if err := checkWord(peek, ct+uint32(4*(w+1)), cr, fmt.Sprintf("des CT[%d]", w+1)); err != nil {
					return err
				}
			}
			for i := 0; i < cores; i++ {
				want := uint32(i)<<16 | uint32(blocksPerCore)
				if err := checkWord(peek, progress+uint32(4*i), want, fmt.Sprintf("des progress[%d]", i)); err != nil {
					return err
				}
			}
			return checkWord(peek, complete, completeMagic, "des complete")
		},
	}, nil
}
