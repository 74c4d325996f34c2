package amba

import (
	"testing"

	"noctg/internal/mem"
	"noctg/internal/ocp"
)

// countWaker counts the wakes a port fires at its master and keeps the
// cycle of the latest.
type countWaker struct {
	n  int
	at uint64
}

func (w *countWaker) Wake()            { panic("a port wakes its master with WakeAt") }
func (w *countWaker) WakeAt(at uint64) { w.n, w.at = w.n+1, at }

// wakeRig is a bus driven by hand, without an engine: the test sets the
// cycle, operates the ports as masters would, then ticks the bus.
type wakeRig struct {
	cycle uint64
	bus   *Bus
}

func newWakeRig(t *testing.T, ports int) (*wakeRig, []*port) {
	t.Helper()
	r := &wakeRig{}
	r.bus = New(Config{}, func() uint64 { return r.cycle })
	ram := mem.NewRAM("ram", 0x1000, 0x1000, 1)
	if err := r.bus.MapSlave(ram, ram.Range()); err != nil {
		t.Fatal(err)
	}
	ps := make([]*port, ports)
	for i := range ps {
		ps[i] = r.bus.NewMasterPort().(*port)
	}
	return r, ps
}

// tickTo ticks the bus through cycle last.
func (r *wakeRig) tickTo(last uint64) {
	for ; r.cycle <= last; r.cycle++ {
		r.bus.Tick(r.cycle)
	}
}

// TestPortWakesAtGrantAndReadCompletion: a port holding its master's waker
// fires it exactly once at the grant, for the next cycle, and once when the
// read's response is delivered, for the cycle it becomes takeable — and for
// a posted write only at the grant, never at the write's completion. The
// master drives the port through a Monitor, which ocp.PassWaker must look
// through, so traced and metered masters sleep like bare ones.
func TestPortWakesAtGrantAndReadCompletion(t *testing.T) {
	r, ps := newWakeRig(t, 1)
	p, w := ocp.NewMonitor(ps[0], func() uint64 { return r.cycle }), &countWaker{}
	if !ocp.PassWaker(p, w) || ps[0].waker != w {
		t.Fatal("the waker did not reach the port behind the monitor")
	}

	read := ocp.Request{Cmd: ocp.Read, Addr: 0x1008, Burst: 1}
	if p.TryRequest(&read) {
		t.Fatal("the bus accepted a request in the cycle it was presented")
	}
	if w.n != 0 {
		t.Fatalf("%d wakes before the grant", w.n)
	}
	r.tickTo(0) // grant; occupancy addr 1 + beat 1 + wait 1 → done at 3
	if w.n != 1 || w.at != 1 {
		t.Fatalf("%d wakes after the grant, the latest for %d; want 1 for cycle 1", w.n, w.at)
	}
	if !p.TryRequest(&read) {
		t.Fatal("granted read not accepted")
	}
	r.tickTo(2)
	if w.n != 1 {
		t.Fatalf("%d wakes while the read is in flight, want 1", w.n)
	}
	r.tickTo(3) // completion
	if w.n != 2 || w.at != 4 {
		t.Fatalf("%d wakes after the read completed, the latest for %d; want 2, for cycle 4", w.n, w.at)
	}
	if _, ok := p.TakeResponse(); !ok {
		t.Fatal("no response the cycle after completion")
	}

	write := ocp.Request{Cmd: ocp.Write, Addr: 0x1010, Burst: 1, Data: []uint32{9}}
	p.TryRequest(&write)
	r.tickTo(r.cycle) // grant
	if w.n != 3 {
		t.Fatalf("%d wakes after the write's grant, want 3", w.n)
	}
	if !p.TryRequest(&write) {
		t.Fatal("granted write not accepted")
	}
	r.tickTo(r.cycle + 10) // the posted write completes inside the span
	if !r.bus.Idle() {
		t.Fatal("the posted write did not drain")
	}
	if w.n != 3 {
		t.Fatalf("%d wakes after the posted write completed, want 3", w.n)
	}
}
