package prog

import "fmt"

// SPMatrix is the paper's single-processor matrix-manipulation benchmark:
// one core initialises two n×n matrices in its cacheable private memory,
// multiplies them and folds the product into a checksum. Traffic is cache
// refills and write-through stores on an otherwise idle interconnect —
// the simplest accuracy/speedup environment (Table 2, "SP matrix").
func SPMatrix(n int) *Spec { return must(spmatrix(n)) }

func spmatrix(n int) (*Spec, error) {
	if n < 2 || n > 64 {
		return nil, fmt.Errorf("prog: SPMatrix n=%d out of range [2,64]", n)
	}
	src := fmt.Sprintf(`
; SP matrix: C = A×B in private memory, then checksum(C) -> result.
	.equ n %d
	.equ nn %d
start:
	; ---- init A[k] = (3k+1)&0xff, B[k] = (5k+2)&0xff ----
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
	; ---- C = A×B ----
	ldi r4, 0             ; i
li:	ldi r6, 0             ; j
lj:	ldi r7, 0             ; acc
	ldi r8, 0             ; k
lk:	ldi r9, n
	mul r9, r4, r9
	add r9, r9, r8
	shli r9, r9, 2
	ldi r10, amat
	add r10, r10, r9
	ldr r10, [r10+0]      ; A[i][k]
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
	bne r8, r9, lk
	ldi r9, n
	mul r9, r4, r9
	add r9, r9, r6
	shli r9, r9, 2
	ldi r10, cmat
	add r10, r10, r9
	str r7, [r10+0]       ; C[i][j]
	addi r6, r6, 1
	ldi r9, n
	bne r6, r9, lj
	addi r4, r4, 1
	ldi r9, n
	bne r4, r9, li
	; ---- checksum(C) -> result ----
	ldi r1, cmat
	ldi r2, 0
	ldi r7, 0
ck:	ldr r3, [r1+0]
	add r7, r7, r3
	addi r1, r1, 4
	addi r2, r2, 1
	ldi r4, nn
	bne r2, r4, ck
	ldi r1, result
	str r7, [r1+0]
	halt
result:
	.word 0
amat:
	.space %d
bmat:
	.space %d
cmat:
	.space %d
`, n, n*n, n*n*4, n*n*4, n*n*4)

	return &Spec{
		Name:      "spmatrix",
		Cores:     1,
		Source:    src,
		MaxCycles: uint64(n) * uint64(n) * uint64(n) * 400 * 4,
		Validate: func(peek func(uint32) uint32, syms map[string]uint32) error {
			a, b := refMatrices(n)
			c := refMatMul(n, a, b)
			var want uint32
			for _, v := range c {
				want += v
			}
			if err := checkWord(peek, syms["result"], want, "spmatrix checksum"); err != nil {
				return err
			}
			// Spot-check the product matrix itself (write-through keeps RAM
			// current).
			base := syms["cmat"]
			for _, k := range []int{0, 1, n, n*n - 1} {
				if err := checkWord(peek, base+uint32(4*k), c[k], fmt.Sprintf("spmatrix C[%d]", k)); err != nil {
					return err
				}
			}
			return nil
		},
	}, nil
}
