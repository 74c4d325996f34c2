package prog

import "fmt"

// maxCacheloopIters bounds Cacheloop's iteration count: 33 times the
// paper's 30 000, 14 M cycles of reference run per core.
const maxCacheloopIters = 1_000_000

// Cacheloop is the paper's cache-resident scaling benchmark: every core
// spins an idle loop that executes entirely from its instruction cache, so
// the interconnect sees only the initial refills. The paper uses it to show
// TG speedup growing with the number of processors, because replaced cores
// dominate simulation cost while the bus stays idle (Table 2, "Cacheloop").
func Cacheloop(cores, iters int) *Spec { return must(cacheloop(cores, iters)) }

func cacheloop(cores, iters int) (*Spec, error) {
	if cores < 1 || iters < 1 || iters > maxCacheloopIters {
		return nil, fmt.Errorf("prog: Cacheloop cores=%d iters=%d invalid", cores, iters)
	}
	src := fmt.Sprintf(`
; Cacheloop: iterate an in-cache loop, then publish the iteration count.
	.equ iters %d
start:
	ldi r1, iters
	ldi r2, 0
	ldi r3, 0
loop:
	addi r2, r2, 1
	subi r1, r1, 1
	bne r1, r3, loop
	ldi r4, result
	str r2, [r4+0]
	halt
result:
	.word 0
`, iters)

	return &Spec{
		Name:      "cacheloop",
		Cores:     cores,
		Source:    src,
		MaxCycles: uint64(iters)*14 + 100_000,
		Validate: func(peek func(uint32) uint32, syms map[string]uint32) error {
			// Same offset in every core's image; syms belongs to core 0.
			for i := 0; i < cores; i++ {
				addr := corePrivAddr(i, syms["result"])
				if err := checkWord(peek, addr, uint32(iters), fmt.Sprintf("cacheloop core %d", i)); err != nil {
					return err
				}
			}
			return nil
		},
	}, nil
}
