package prog

// Pure-Go reference implementations. The simulated programs must reproduce
// these results bit-exactly; the test suites compare memory contents after
// each run.

// matInitA/B are the element formulas both the assembly and the reference
// use. Values stay below 2⁸ so n ≤ 64 products cannot overflow 32 bits.
func matInitA(k uint32) uint32 { return (k*3 + 1) & 0xff }
func matInitB(k uint32) uint32 { return (k*5 + 2) & 0xff }

// refMatrices builds the n×n input matrices.
func refMatrices(n int) (a, b []uint32) {
	a = make([]uint32, n*n)
	b = make([]uint32, n*n)
	for k := range a {
		a[k] = matInitA(uint32(k))
		b[k] = matInitB(uint32(k))
	}
	return a, b
}

// refMatMul computes c = a×b over uint32 (wrapping, like the core).
func refMatMul(n int, a, b []uint32) []uint32 {
	c := make([]uint32, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var acc uint32
			for k := 0; k < n; k++ {
				acc += a[i*n+k] * b[k*n+j]
			}
			c[i*n+j] = acc
		}
	}
	return c
}

// refRowChecksum sums the C elements of the rows core id owns under
// round-robin row partitioning.
func refRowChecksum(n, cores, id int, c []uint32) uint32 {
	var sum uint32
	for row := id; row < n; row += cores {
		for j := 0; j < n; j++ {
			sum += c[row*n+j]
		}
	}
	return sum
}

// ror mirrors the core's RORI semantics.
func ror(v uint32, sh int) uint32 {
	sh &= 31
	return v>>sh | v<<((32-sh)&31)
}

// desTables generates the synthetic SP-tables and round keys. Real FIPS
// S-box constants cannot be verified offline, so deterministic pseudo-random
// tables are used instead; the access pattern and computation structure are
// identical to table-driven DES: only the constants differ.
func desTables() (sptab [8][64]uint32, ks [16][8]uint32) {
	state := uint32(0x2545F491)
	next := func() uint32 {
		// xorshift32
		state ^= state << 13
		state ^= state >> 17
		state ^= state << 5
		return state
	}
	for g := 0; g < 8; g++ {
		for i := 0; i < 64; i++ {
			sptab[g][i] = next()
		}
	}
	for r := 0; r < 16; r++ {
		for g := 0; g < 8; g++ {
			ks[r][g] = next() & 0x3f
		}
	}
	return
}

// desPlainWord is the plaintext initialisation formula (mirrored in asm).
func desPlainWord(w uint32) uint32 { return (w * 0x9E3779B1) ^ 0x5A5A5A5A }

// refDESBlock encrypts one two-word block exactly as the assembly does:
// 16 Feistel rounds, F(R) = OR of eight SP-table lookups indexed by
// overlapping 6-bit windows of R XORed with the round key chunks.
func refDESBlock(l, r uint32, sptab *[8][64]uint32, ks *[16][8]uint32) (uint32, uint32) {
	for round := 0; round < 16; round++ {
		var f uint32
		for g := 0; g < 8; g++ {
			idx := (ror(r, 4*g) & 0x3f) ^ ks[round][g]
			f |= sptab[g][idx]
		}
		l, r = r, l^f
	}
	return l, r
}
