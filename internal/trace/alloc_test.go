//go:build !race

package trace

import (
	"runtime"
	"testing"
	"unsafe"

	"noctg/internal/ocp"
	"noctg/internal/sim"
)

// readPort accepts every request at once and answers each read with a
// fixed payload, allocating nothing.
type readPort struct {
	resp ocp.Response
	busy bool
}

func (p *readPort) TryRequest(req *ocp.Request) bool {
	p.busy = req.Cmd.IsRead()
	return true
}

func (p *readPort) TakeResponse() (*ocp.Response, bool) {
	if !p.busy {
		return nil, false
	}
	p.busy = false
	return &p.resp, true
}

func (p *readPort) Busy() bool { return p.busy }

// TestAllocBudgetTraceLog holds recording to what it keeps and the trace
// to no copy of it: a monitor recording N transactions allocates at most
// 1.1 × (N events + their payload words), in at most N/100 allocations,
// and building the trace on its log allocates nothing that grows with N. Joining the chunks into one
// flat slice, one allocation per payload, or an Event wider than 64 bytes
// (a full 512-event chunk then rounds up to whole pages) breaks it.
func TestAllocBudgetTraceLog(t *testing.T) {
	if size := unsafe.Sizeof(ocp.Event{}); size > 64 {
		t.Fatalf("ocp.Event takes %d bytes, want at most 64", size)
	}
	const n = 100_000
	var cycle uint64
	port := &readPort{resp: ocp.Response{Data: []uint32{1, 2, 3, 4}}}
	m := ocp.NewMonitor(port, func() uint64 { return cycle })
	m.Record()
	reqs := []ocp.Request{
		{Cmd: ocp.Write, Addr: 0x100, Burst: 1, Data: []uint32{7}},
		{Cmd: ocp.Read, Addr: 0x104, Burst: 1},
		{Cmd: ocp.BurstWrite, Addr: 0x200, Burst: 2, Data: []uint32{8, 9}},
		{Cmd: ocp.BurstRead, Addr: 0x300, Burst: 4},
	}
	words := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range n {
		req := &reqs[i%len(reqs)]
		cycle++
		m.TryRequest(req)
		if req.Cmd.IsRead() {
			cycle++
			m.TakeResponse()
			words += len(port.resp.Data)
		} else {
			words += len(req.Data)
		}
	}
	runtime.ReadMemStats(&after)
	kept := float64(n*unsafe.Sizeof(ocp.Event{})) + float64(4*words)
	got, objects := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	if float64(got) > 1.1*kept {
		t.Fatalf("recording %d transactions (%d payload words) allocated %d bytes, budget %.0f", n, words, got, 1.1*kept)
	}
	// The log and the arena grow in blocks of hundreds of events and
	// thousands of words: a few hundred allocations, not one per event.
	if objects > n/100 {
		t.Fatalf("recording %d transactions made %d allocations, want at most %d", n, objects, n/100)
	}
	t.Logf("recording %d transactions (%d payload words) allocated %d bytes in %d objects for %.0f kept", n, words, got, objects, kept)

	runtime.ReadMemStats(&before)
	tr := New(0, sim.DefaultClock, m.Log())
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1024 {
		t.Fatalf("building the trace on a %d-event log allocated %d bytes; it must not copy the log", n, got)
	}
	if tr.Len() != n || tr.At(n-1).Addr != reqs[(n-1)%len(reqs)].Addr {
		t.Fatalf("the trace holds %d events, want %d", tr.Len(), n)
	}
}
