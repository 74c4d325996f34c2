package amba

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"noctg/internal/mem"
	"noctg/internal/ocp"
	"noctg/internal/sim"
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

// blockedReader presents one read at cycle at and then sleeps blocked in
// its handshake: the port wakes it at the grant and at the response.
type blockedReader struct {
	ocp.Handshake
	at            uint64
	started, done bool
}

func (m *blockedReader) Tick(cycle uint64) {
	if m.done || cycle < m.at {
		return
	}
	if !m.started {
		m.started = true
		m.Start(ocp.Request{Cmd: ocp.Read, Addr: 0x1008, Burst: 1})
	}
	_, _, m.done = m.Step()
}

func (m *blockedReader) NextWake(now uint64) uint64 {
	switch {
	case !m.started:
		return max(m.at, now)
	case m.done:
		return sim.WakeNever
	}
	return m.BlockedWake(now)
}

// tickLog records the cycles the engine ticks the bus in.
type tickLog struct {
	*Bus
	ticks []uint64
}

func (b *tickLog) Tick(cycle uint64) {
	b.ticks = append(b.ticks, cycle)
	b.Bus.Tick(cycle)
}

func (b *tickLog) TickWake(cycle uint64) uint64 {
	b.Tick(cycle)
	return b.NextWake(cycle + 1)
}

// TestBusSleepsThroughShortTransfers: three blocked masters read, two
// presenting in cycle 0 and one in cycle 2, while the first transfer is in
// flight and the bus has slept a cycle; each transfer takes 3 cycles
// (address, beat, one wait state).
// On the event kernel the bus is ticked only where a transfer is granted
// or completes — cycles 0, 3, 6 and 9 — not in the cycles a transfer is in
// flight, not for the request that joins the queue during one, and not
// while a response waits to be taken; and its busy, idle and wait
// counters equal the strict kernel's, which ticks it every cycle, read
// mid-run as well as at the end.
//
// The bus must be ticked after its masters (see Bus). The "bus first" row
// registers it before them and pins what that order yields, the same on
// both kernels: every grant a cycle later, the cycles before the bus's
// first tick counted idle on the event kernel too, and each wait counted
// from the cycle its request was presented — one cycle more per request
// than a per-cycle count, which cannot see a request in the cycle the bus
// has already been ticked in, would read ([0 3 4] at the end).
func TestBusSleepsThroughShortTransfers(t *testing.T) {
	run := func(k sim.Kernel, busFirst bool) (*tickLog, uint64, string) {
		e := sim.NewEngine(sim.Clock{})
		e.SetKernel(k)
		bus := New(Config{}, e.Cycle)
		ram := mem.NewRAM("ram", 0x1000, 0x1000, 1)
		if err := bus.MapSlave(ram, ram.Range()); err != nil {
			t.Fatal(err)
		}
		log := &tickLog{Bus: bus}
		if busFirst {
			e.Add(log)
		}
		var ms []*blockedReader
		for _, at := range []uint64{0, 0, 2} {
			m := &blockedReader{Handshake: ocp.NewHandshake(bus.NewMasterPort()), at: at}
			ms = append(ms, m)
			e.Add(m)
		}
		if !busFirst {
			e.Add(log)
		}
		// Read the wait counters mid-run, with the third master queued: the
		// getter settles its cycles so far, and they are not counted again
		// at its grant.
		if _, err := e.Run(5, func() bool { return false }); !errors.Is(err, sim.ErrMaxCycles) {
			t.Fatalf("%v: Run(5) = %v", k, err)
		}
		mid := fmt.Sprint(bus.WaitCycles())
		done := func() bool { return ms[0].done && ms[1].done && ms[2].done && bus.Idle() }
		if _, err := e.Run(100, done); err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		return log, e.Cycle(), mid
	}
	for _, c := range []struct {
		name                    string
		busFirst                bool
		eventTicks              []uint64
		midWaits, busyIdleWaits string
	}{
		{"masters first", false, []uint64{0, 3, 6, 9}, "[0 3 3]", "9 2 [0 3 4]"},
		{"bus first", true, []uint64{1, 4, 7, 10}, "[1 4 3]", "9 3 [1 4 5]"},
	} {
		strict, strictEnd, strictMid := run(sim.KernelStrict, c.busFirst)
		event, eventEnd, eventMid := run(sim.KernelEvent, c.busFirst)
		if !slices.Equal(event.ticks, c.eventTicks) {
			t.Fatalf("%s: event kernel ticked the bus at %v, want %v", c.name, event.ticks, c.eventTicks)
		}
		if uint64(len(strict.ticks)) != strictEnd || eventEnd != strictEnd {
			t.Fatalf("%s: strict kernel ticked the bus %d times and ended at %d, event at %d", c.name, len(strict.ticks), strictEnd, eventEnd)
		}
		if strictMid != c.midWaits || eventMid != c.midWaits {
			t.Fatalf("%s: wait cycles after cycle 4: strict %s, event %s, want %s", c.name, strictMid, eventMid, c.midWaits)
		}
		got := fmt.Sprint(event.BusyCycles(), event.IdleCycles(), event.WaitCycles())
		want := fmt.Sprint(strict.BusyCycles(), strict.IdleCycles(), strict.WaitCycles())
		if got != want || want != c.busyIdleWaits {
			t.Fatalf("%s: busy, idle, wait: event %s, strict %s, want %s", c.name, got, want, c.busyIdleWaits)
		}
	}
}
