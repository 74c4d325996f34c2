package amba

import (
	"testing"

	"noctg/internal/mem"
	"noctg/internal/ocp"
	"noctg/internal/sim"
)

// countWaker counts the wakes a port fires at its master.
type countWaker struct{ n int }

func (w *countWaker) Wake() { w.n++ }

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
// fires it exactly once at the grant and once when the read's response is
// delivered — and for a posted write only at the grant, never at the
// write's completion. The master drives the port through a Monitor, which
// must hand the waker on, so traced and metered masters sleep like bare ones.
func TestPortWakesAtGrantAndReadCompletion(t *testing.T) {
	r, ps := newWakeRig(t, 1)
	p, w := ocp.NewMonitor(ps[0], func() uint64 { return r.cycle }), &countWaker{}
	p.SetWaker(w)
	if ps[0].waker != w {
		t.Fatal("the monitor did not hand the waker to its port")
	}

	read := ocp.Request{Cmd: ocp.Read, Addr: 0x1008, Burst: 1}
	if p.TryRequest(&read) {
		t.Fatal("the bus accepted a request in the cycle it was presented")
	}
	if w.n != 0 {
		t.Fatalf("%d wakes before the grant", w.n)
	}
	r.tickTo(0) // grant; occupancy addr 1 + beat 1 + wait 1 → done at 3
	if w.n != 1 {
		t.Fatalf("%d wakes after the grant, want 1", w.n)
	}
	if !p.TryRequest(&read) {
		t.Fatal("granted read not accepted")
	}
	r.tickTo(2)
	if w.n != 1 {
		t.Fatalf("%d wakes while the read is in flight, want 1", w.n)
	}
	r.tickTo(3) // completion
	if w.n != 2 {
		t.Fatalf("%d wakes after the read completed, want 2", w.n)
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

// TestPortWakeHintNeverOnlyWithWaker: WakeHint answers WakeNever only for a
// blocked port (requesting, or awaiting its read's response) that holds a
// waker. A blocked port without one hints now.
func TestPortWakeHintNeverOnlyWithWaker(t *testing.T) {
	r, ps := newWakeRig(t, 3)
	long, queued, bare := ps[0], ps[1], ps[2]
	long.SetWaker(&countWaker{})
	queued.SetWaker(&countWaker{})

	if h := queued.WakeHint(0); h != 0 {
		t.Fatalf("idle port with a waker hints %d, want now", h)
	}
	burst := ocp.Request{Cmd: ocp.BurstRead, Addr: 0x1000, Burst: 16}
	single := ocp.Request{Cmd: ocp.Read, Addr: 0x1000, Burst: 1}
	other := single
	long.TryRequest(&burst)
	queued.TryRequest(&single)
	bare.TryRequest(&other)
	if h := queued.WakeHint(1); h != sim.WakeNever {
		t.Fatalf("requesting port with a waker hints %d, want WakeNever", h)
	}
	if h := bare.WakeHint(1); h != 1 {
		t.Fatalf("requesting port without a waker, bus free, hints %d, want now", h)
	}

	r.tickTo(0) // long wins round-robin: done at 0 + 1 + 16 + 16 = 33
	const done = 33
	if h := long.WakeHint(1); h != 1 {
		t.Fatalf("granted port hints %d, want now", h)
	}
	r.cycle = 1
	if !long.TryRequest(&burst) {
		t.Fatal("granted burst not accepted")
	}
	if h := long.WakeHint(2); h != sim.WakeNever {
		t.Fatalf("port awaiting its read with a waker hints %d, want WakeNever", h)
	}
	if h := queued.WakeHint(2); h != sim.WakeNever {
		t.Fatalf("queued port with a waker hints %d, want WakeNever", h)
	}
	if h := bare.WakeHint(2); h != 2 {
		t.Fatalf("queued port without a waker hints %d, want now", h)
	}

	r.tickTo(done) // completion; response delivered at done+1
	if h := long.WakeHint(done + 1); h != done+1 {
		t.Fatalf("port with a delivered response hints %d, want now", h)
	}
}
