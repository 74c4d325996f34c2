// The guard is skipped under the race detector, whose instrumentation
// allocates on its own.

//go:build !race

package mem

import (
	"testing"

	"noctg/internal/ocp"
)

// A RAM that takes a recycled table and writes the pages its predecessor
// wrote allocates nothing: the table and its pages come back together.
func TestZeroAllocRAMRecycledTable(t *testing.T) {
	data := []uint32{1, 2, 3, 4}
	w := &ocp.Request{Cmd: ocp.BurstWrite, Addr: 4096 - 8, Burst: 4, Data: data}
	run := func() {
		r := RAM{size: 16 * pageWords}
		r.Perform(w, nil)
		r.LoadWords(12*4096, []uint32{9})
		r.LoadWords(5*4096-4, data)
		r.Clear()
	}
	run()
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Fatalf("a RAM on a recycled table allocates %.1f times per run", avg)
	}
}
