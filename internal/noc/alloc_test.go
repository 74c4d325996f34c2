//go:build !race

package noc

import (
	"runtime"
	"testing"
	"unsafe"
)

// TestAllocBudgetNetwork holds a router to five cache lines and New to the
// allocations it makes (go1.24, linux/amd64): three slabs — routers, their
// pointers, every input ring — plus the network, its active set and hop
// histogram, whatever the fabric's size. The sweep builds a fabric per
// point, so one more allocation per router or a grown record shows up as
// campaign allocation volume (alloc_mb).
func TestAllocBudgetNetwork(t *testing.T) {
	if size := unsafe.Sizeof(router{}); size > 320 {
		t.Fatalf("router takes %d bytes, want at most 320", size)
	}
	for _, tc := range []struct {
		w, h          int
		allocs, bytes uint64
	}{
		{4, 3, 8, 29520},
		{16, 16, 8, 576578},
	} {
		// The least of five integer means: a stray allocation by another
		// goroutine only ever adds, one more allocation per New or one more
		// byte always shows.
		allocs, bytes := ^uint64(0), ^uint64(0)
		for round := 0; round < 5; round++ {
			var n *Network
			var before, after runtime.MemStats
			const runs = 10
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				n = New(Config{Width: tc.w, Height: tc.h}, func() uint64 { return 0 })
			}
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(n)
			allocs = min(allocs, (after.Mallocs-before.Mallocs)/runs)
			bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/runs)
		}
		if allocs > tc.allocs || bytes > tc.bytes {
			t.Errorf("New on %dx%d takes %d allocs and %d bytes, want at most %d and %d",
				tc.w, tc.h, allocs, bytes, tc.allocs, tc.bytes)
		}
	}
}
