package prog

import (
	"fmt"

	"noctg/internal/layout"
)

// MPMatrix is the paper's multiprocessor matrix benchmark: the input
// matrices live in uncacheable shared memory, rows are partitioned
// round-robin over the cores, and the cores synchronise through a ready
// flag, a hardware semaphore (one critical section per computed row, which
// serialises progress publishing and generates the polling contention the
// paper's §3 analyses) and per-core done flags that core 0 collects
// (Table 2, "MP matrix").
func MPMatrix(cores, n int) *Spec { return must(mpmatrix(cores, n)) }

func mpmatrix(cores, n int) (*Spec, error) {
	if cores < 1 || cores > 16 || n < cores || n > 64 {
		return nil, fmt.Errorf("prog: MPMatrix cores=%d n=%d invalid", cores, n)
	}
	ready := sharedAddr(offReady)
	tick := sharedAddr(offTick)
	complete := sharedAddr(offComplete)
	done := sharedAddr(offDone)
	sums := sharedAddr(offSums)
	amat := sharedAddr(offData)
	bmat := amat + uint32(n*n*4)
	cmat := bmat + uint32(n*n*4)
	sem0 := layout.SemAddr(0)

	src := fmt.Sprintf(`
; MP matrix: shared C = A×B, round-robin rows, semaphore-paced publishing.
	.equ n %d
	.equ nn %d
	.equ ncores %d
	.equ ready %#x
	.equ tick %#x
	.equ complete %#x
	.equ doneflags %#x
	.equ sums %#x
	.equ amat %#x
	.equ bmat %#x
	.equ cmat %#x
	.equ sem0 %#x
start:
	ldi r1, ready
	ldi r2, 1
	ldi r3, 0
	bne r15, r3, wait_ready
	; ---- core 0 initialises A and B in shared memory ----
	ldi r1, amat
	ldi r2, 0
ia:	ldi r3, 3
	mul r3, r2, r3
	addi r3, r3, 1
	andi r3, r3, 0xff
	str r3, [r1+0]
	addi r1, r1, 4
	addi r2, r2, 1
	ldi r4, nn
	bne r2, r4, ia
	ldi r1, bmat
	ldi r2, 0
ib:	ldi r3, 5
	mul r3, r2, r3
	addi r3, r3, 2
	andi r3, r3, 0xff
	str r3, [r1+0]
	addi r1, r1, 4
	addi r2, r2, 1
	ldi r4, nn
	bne r2, r4, ib
	ldi r1, ready
	ldi r2, 1
	str r2, [r1+0]
	jmp compute
	; Poll loops are exactly one I-cache line (two instructions, aligned)
	; so their refill always precedes the first poll on every fabric —
	; required for cross-interconnect .tgp equality (exp.CrossCheck).
	.align 16
wait_ready:
	ldr r3, [r1+0]
	bne r3, r2, wait_ready
compute:
	ldi r13, 0            ; my checksum accumulator
	mov r4, r15           ; row = id
rowloop:
	ldi r5, n
	bge r4, r5, rows_done
	ldi r6, 0             ; j
colloop:
	ldi r7, 0             ; acc
	ldi r8, 0             ; k
kloop:
	ldi r9, n
	mul r9, r4, r9
	add r9, r9, r8
	shli r9, r9, 2
	ldi r10, amat
	add r10, r10, r9
	ldr r10, [r10+0]      ; A[row][k] (uncached shared read)
	ldi r11, n
	mul r11, r8, r11
	add r11, r11, r6
	shli r11, r11, 2
	ldi r12, bmat
	add r12, r12, r11
	ldr r12, [r12+0]      ; B[k][j]
	mul r10, r10, r12
	add r7, r7, r10
	addi r8, r8, 1
	ldi r9, n
	bne r8, r9, kloop
	ldi r9, n
	mul r9, r4, r9
	add r9, r9, r6
	shli r9, r9, 2
	ldi r10, cmat
	add r10, r10, r9
	str r7, [r10+0]       ; C[row][j]
	add r13, r13, r7
	addi r6, r6, 1
	ldi r9, n
	bne r6, r9, colloop
	; ---- per-row critical section: publish running checksum ----
	ldi r1, sem0
	ldi r3, 1
	.align 16
acq:
	ldr r2, [r1+0]
	bne r2, r3, acq
	ldi r2, tick
	ldr r3, [r2+0]        ; shared read inside the section (value unused)
	ldi r2, sums
	mov r3, r15
	shli r3, r3, 2
	add r2, r2, r3
	str r13, [r2+0]       ; sums[id] = my checksum so far
	ldi r1, sem0
	ldi r2, 1
	str r2, [r1+0]        ; release
	addi r4, r4, ncores
	jmp rowloop
rows_done:
	; ---- done flag ----
	ldi r1, doneflags
	mov r2, r15
	shli r2, r2, 2
	add r1, r1, r2
	ldi r2, 1
	str r2, [r1+0]
	ldi r3, 0
	bne r15, r3, fin
	; ---- core 0 collects all done flags ----
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
`, n, n*n, cores, ready, tick, complete, done, sums, amat, bmat, cmat, sem0, completeMagic)

	return &Spec{
		Name:      "mpmatrix",
		Cores:     cores,
		Source:    src,
		PollWords: pollWordsForCores(cores),
		MaxCycles: uint64(n)*uint64(n)*uint64(n)*600 + 2_000_000,
		Validate: func(peek func(uint32) uint32, syms map[string]uint32) error {
			a, b := refMatrices(n)
			c := refMatMul(n, a, b)
			for k := range c {
				if err := checkWord(peek, cmat+uint32(4*k), c[k], fmt.Sprintf("mpmatrix C[%d]", k)); err != nil {
					return err
				}
			}
			for i := 0; i < cores; i++ {
				want := refRowChecksum(n, cores, i, c)
				if err := checkWord(peek, sums+uint32(4*i), want, fmt.Sprintf("mpmatrix sums[%d]", i)); err != nil {
					return err
				}
			}
			return checkWord(peek, complete, completeMagic, "mpmatrix complete")
		},
	}, nil
}
