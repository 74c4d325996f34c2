package prog

import "fmt"

// pipeline is an additional workload beyond the paper's four: a dataflow
// chain in which core 0 produces items, middle cores transform them, and
// the last core folds them into a checksum, with single-buffer flag
// handshakes between adjacent stages. Every item crosses every stage
// boundary through shared memory, so the traffic is dominated by
// fine-grained reactive synchronisation — the hardest case for a traffic
// generator, and a typical streaming-DSP pattern on a NoC.
//
// Stage s communicates with stage s+1 through flag[s]: the producer side
// polls flag[s] == 0 (buffer free), writes the item and sets flag[s] = 1;
// the consumer side polls flag[s] == 1, reads the item and clears the
// flag. Each poll episode targets a single stable value, so the translator
// collapses it reactively like any barrier flag.
func pipeline(cores, items int) (*Spec, error) {
	if cores < 2 || cores > 16 || items < 1 || items > 4096 {
		return nil, fmt.Errorf("prog: Pipeline cores=%d items=%d invalid", cores, items)
	}
	complete := sharedAddr(offComplete)
	result := sharedAddr(offSums)
	flags := sharedAddr(offProgress) // flag[s] at flags + 4s
	bufs := sharedAddr(offData)      // buf[s] at bufs + 8s: {value, seq}

	src := fmt.Sprintf(`
; Pipeline: core 0 -> core 1 -> ... -> core P-1 over flag-handshake buffers.
	.equ ncores %d
	.equ items %d
	.equ flags %#x
	.equ bufs %#x
	.equ result %#x
	.equ complete %#x
start:
	ldi r13, 0            ; item counter
	ldi r12, 0            ; checksum (last stage)
	; my left flag/buf: index r15-1; my right: index r15
	mov r4, r15
	shli r4, r4, 2
	ldi r5, flags
	add r4, r5, r4        ; r4 = &flag[s] (right)
	mov r5, r15
	shli r5, r5, 3
	ldi r6, bufs
	add r5, r6, r5        ; r5 = &buf[s] (right)
	mov r6, r15
	subi r6, r6, 1
	shli r6, r6, 2
	ldi r7, flags
	add r6, r7, r6        ; r6 = &flag[s-1] (left)
	mov r7, r15
	subi r7, r7, 1
	shli r7, r7, 3
	ldi r8, bufs
	add r7, r8, r7        ; r7 = &buf[s-1] (left)
itemloop:
	ldi r1, 0
	bne r15, r1, not_producer
	; ---- stage 0: produce value = 7k+3 ----
	mov r1, r4
	ldi r2, 0
	.align 16
pwait:
	ldr r3, [r1+0]
	bne r3, r2, pwait     ; wait buffer free
	ldi r9, 7
	mul r9, r13, r9
	addi r9, r9, 3
	str r9, [r5+0]        ; value
	str r13, [r5+4]       ; sequence number
	ldi r9, 1
	str r9, [r1+0]        ; publish
	jmp next
not_producer:
	; ---- consume from the left ----
	mov r1, r6
	ldi r2, 1
	.align 16
cwait:
	ldr r3, [r1+0]
	bne r3, r2, cwait     ; wait item available
	ldr r9, [r7+0]        ; value
	ldr r10, [r7+4]       ; seq
	ldi r2, 0
	str r2, [r1+0]        ; free the buffer
	; transform: v = 3v + 1
	ldi r11, 3
	mul r9, r9, r11
	addi r9, r9, 1
	ldi r1, ncores
	subi r1, r1, 1
	beq r15, r1, last_stage
	; ---- middle stage: forward to the right ----
	mov r1, r4
	ldi r2, 0
	.align 16
mwait:
	ldr r3, [r1+0]
	bne r3, r2, mwait     ; wait right buffer free
	str r9, [r5+0]
	str r10, [r5+4]
	ldi r9, 1
	str r9, [r1+0]
	jmp next
last_stage:
	; ---- sink: fold into checksum ----
	add r12, r12, r9
	add r12, r12, r10
next:
	addi r13, r13, 1
	ldi r9, items
	bne r13, r9, itemloop
	; ---- epilogue ----
	ldi r1, ncores
	subi r1, r1, 1
	bne r15, r1, fin
	ldi r1, result
	str r12, [r1+0]
	ldi r1, complete
	ldi r2, %#x
	str r2, [r1+0]
fin:
	halt
`, cores, items, flags, bufs, result, complete, completeMagic)

	// Pollable words: one handshake flag per stage boundary.
	var polls []uint32
	for s := 0; s < cores-1; s++ {
		polls = append(polls, flags+uint32(4*s))
	}

	return &Spec{
		Name:      "pipeline",
		Cores:     cores,
		Source:    src,
		PollWords: polls,
		MaxCycles: uint64(items)*uint64(cores)*3000 + 1_000_000,
		Validate: func(peek func(uint32) uint32, syms map[string]uint32) error {
			var want uint32
			for k := 0; k < items; k++ {
				v := uint32(7*k + 3)
				for s := 1; s < cores; s++ {
					v = 3*v + 1
				}
				want += v + uint32(k)
			}
			if err := checkWord(peek, result, want, "pipeline checksum"); err != nil {
				return err
			}
			return checkWord(peek, complete, completeMagic, "pipeline complete")
		},
	}, nil
}
