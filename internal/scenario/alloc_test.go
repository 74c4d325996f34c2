//go:build !race

package scenario

import (
	"runtime"
	"testing"

	"noctg/internal/sweep"
)

// TestLibraryAllocIndependentOfGC: the memories a finished point hands
// back outlive garbage collections, so a library point allocates the same
// whether or not the collector ran before it. A sync.Pool would lose them
// at each collection, and the next point would allocate its stores afresh:
// 57 KiB more per point. What a collection still costs a point is the
// runtime's and the standard library's own (the allocator's tiny block,
// fmt's printer cache): about 150 bytes, inside the 1 KiB allowed.
func TestLibraryAllocIndependentOfGC(t *testing.T) {
	pts := libraryPoints(t)
	run := func(collect bool) (bytes uint64) {
		for _, p := range pts {
			if collect {
				runtime.GC()
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := sweep.Runner{Workers: 1}.Run([]sweep.Point{p})
			runtime.ReadMemStats(&after)
			if err != nil || res[0].Err != "" {
				t.Fatalf("point %d: %v %s", p.ID, err, res[0].Err)
			}
			bytes += after.TotalAlloc - before.TotalAlloc
		}
		return bytes
	}
	run(false) // leaves the recycled stores behind
	plain, collected := run(false), run(true)
	t.Logf("%d points: %d bytes, %d with a collection before each", len(pts), plain, collected)
	if slack := uint64(len(pts)) << 10; collected > plain+slack || plain > collected+slack {
		t.Fatalf("library points allocate %d bytes, %d with a collection before each point", plain, collected)
	}
}
