package noc

import (
	"fmt"
	"math/rand"
	"testing"

	"noctg/internal/mem"
	"noctg/internal/ocp"
	"noctg/internal/sim"
	"noctg/internal/simtest"
)

// rig builds a 4×3 mesh with a RAM at node 11 and masters at given nodes.
func rig(t *testing.T, cfg Config, nodes []int, scripts [][]simtest.Step) (*sim.Engine, *Network, []*simtest.Master, *mem.RAM) {
	t.Helper()
	e := sim.NewEngine(sim.Clock{})
	n := New(cfg, e.Cycle)
	ram := mem.NewRAM("ram", 0x1000, 0x1000, 1)
	if err := n.AttachSlave(n.Nodes()-1, ram, ram.Range()); err != nil {
		t.Fatal(err)
	}
	masters := make([]*simtest.Master, len(nodes))
	for i, node := range nodes {
		masters[i] = simtest.NewMaster(n.AttachMaster(node), scripts[i])
		e.Add(masters[i])
	}
	e.Add(n)
	return e, n, masters, ram
}

func runAll(t *testing.T, e *sim.Engine, n *Network, masters []*simtest.Master, max uint64) {
	t.Helper()
	_, err := e.Run(max, func() bool {
		for _, m := range masters {
			if !m.Done() {
				return false
			}
		}
		return n.Idle()
	})
	if err != nil {
		t.Fatalf("NoC simulation did not finish: %v", err)
	}
}

func TestReadOverMesh(t *testing.T) {
	script := [][]simtest.Step{{{Gap: 0, Req: ocp.Request{Cmd: ocp.Read, Addr: 0x1004, Burst: 1}}}}
	e, n, ms, ram := rig(t, Config{}, []int{0}, script)
	ram.LoadWords(0x1004, []uint32{0xabcd})
	runAll(t, e, n, ms, 1000)
	if ms[0].RespData[0][0] != 0xabcd {
		t.Fatalf("read = %#x, want 0xabcd", ms[0].RespData[0][0])
	}
	if ms[0].RespCycles[0] < 8 {
		t.Fatalf("cross-mesh read latency %d suspiciously low", ms[0].RespCycles[0])
	}
}

func TestWriteReachesMemory(t *testing.T) {
	script := [][]simtest.Step{{{Gap: 0, Req: ocp.Request{Cmd: ocp.Write, Addr: 0x1010, Burst: 1, Data: []uint32{0x55}}}}}
	e, n, ms, ram := rig(t, Config{}, []int{0}, script)
	runAll(t, e, n, ms, 1000)
	if ram.PeekWord(0x1010) != 0x55 {
		t.Fatal("posted write did not reach memory")
	}
}

func TestPostedWriteAcceptBeforeDelivery(t *testing.T) {
	// The master must be released (accept) before the write lands: accept
	// happens at tail injection, delivery several hops later.
	script := [][]simtest.Step{{
		{Gap: 0, Req: ocp.Request{Cmd: ocp.Write, Addr: 0x1010, Burst: 1, Data: []uint32{1}}},
	}}
	e, n, ms, ram := rig(t, Config{}, []int{0}, script)
	var acceptedAt, landedAt uint64
	_, err := e.Run(1000, func() bool {
		if acceptedAt == 0 && ms[0].Done() {
			acceptedAt = e.Cycle()
		}
		if landedAt == 0 && ram.PeekWord(0x1010) == 1 {
			landedAt = e.Cycle()
		}
		return ms[0].Done() && n.Idle()
	})
	if err != nil {
		t.Fatal(err)
	}
	if acceptedAt == 0 || landedAt == 0 || acceptedAt >= landedAt {
		t.Fatalf("accept at %d should precede delivery at %d", acceptedAt, landedAt)
	}
}

func TestBurstReadOverMesh(t *testing.T) {
	script := [][]simtest.Step{{{Gap: 0, Req: ocp.Request{Cmd: ocp.BurstRead, Addr: 0x1020, Burst: 4}}}}
	e, n, ms, ram := rig(t, Config{}, []int{2}, script)
	for i := 0; i < 4; i++ {
		ram.LoadWords(0x1020+uint32(i*4), []uint32{uint32(i + 1)})
	}
	runAll(t, e, n, ms, 1000)
	for i := 0; i < 4; i++ {
		if ms[0].RespData[0][i] != uint32(i+1) {
			t.Fatalf("burst data %v", ms[0].RespData[0])
		}
	}
}

func TestLatencyGrowsWithDistance(t *testing.T) {
	read := []simtest.Step{{Gap: 0, Req: ocp.Request{Cmd: ocp.Read, Addr: 0x1000, Burst: 1}}}
	// Master adjacent to the slave (node 10 next to 11) vs far corner (0).
	lat := func(node int) uint64 {
		e, n, ms, _ := rig(t, Config{}, []int{node}, [][]simtest.Step{read})
		runAll(t, e, n, ms, 1000)
		return ms[0].RespCycles[0] - ms[0].AssertCycles[0]
	}
	near, far := lat(10), lat(0)
	if near >= far {
		t.Fatalf("near latency %d should be below far latency %d", near, far)
	}
}

func TestTwoMastersSerializedAtSlave(t *testing.T) {
	read := []simtest.Step{{Gap: 0, Req: ocp.Request{Cmd: ocp.Read, Addr: 0x1000, Burst: 1}}}
	e, n, ms, ram := rig(t, Config{}, []int{0, 1}, [][]simtest.Step{read, read})
	ram.LoadWords(0x1000, []uint32{9})
	runAll(t, e, n, ms, 1000)
	if ms[0].RespData[0][0] != 9 || ms[1].RespData[0][0] != 9 {
		t.Fatal("both masters should read the value")
	}
	if ms[0].RespCycles[0] == ms[1].RespCycles[0] {
		t.Fatal("single-ported slave must serialize responses")
	}
}

func TestDecodeErrorLocalResponse(t *testing.T) {
	script := [][]simtest.Step{{{Gap: 0, Req: ocp.Request{Cmd: ocp.Read, Addr: 0x9f00_0000, Burst: 1}}}}
	e, n, ms, _ := rig(t, Config{}, []int{0}, script)
	runAll(t, e, n, ms, 1000)
	if n.st.decodeErrors.Value() != 1 {
		t.Fatal("decode error not counted")
	}
	if len(ms[0].RespData[0]) != 0 {
		t.Fatal("error response should be empty")
	}
}

func TestSemaphoreMutualExclusionOverNoC(t *testing.T) {
	e := sim.NewEngine(sim.Clock{})
	n := New(Config{}, e.Cycle)
	sem := mem.NewSemBank("sem", 0x9000, 1, 1)
	if err := n.AttachSlave(5, sem, sem.Range()); err != nil {
		t.Fatal(err)
	}
	lock := []simtest.Step{{Gap: 0, Req: ocp.Request{Cmd: ocp.Read, Addr: 0x9000, Burst: 1}}}
	m1 := simtest.NewMaster(n.AttachMaster(0), lock)
	m2 := simtest.NewMaster(n.AttachMaster(11), lock)
	e.Add(m1)
	e.Add(m2)
	e.Add(n)
	if _, err := e.Run(1000, func() bool { return m1.Done() && m2.Done() && n.Idle() }); err != nil {
		t.Fatal(err)
	}
	if m1.RespData[0][0]+m2.RespData[0][0] != 1 {
		t.Fatalf("semaphore granted to %d+%d masters", m1.RespData[0][0], m2.RespData[0][0])
	}
}

func TestHeavyCrossTrafficAllDelivered(t *testing.T) {
	// Property-style stress: many masters fire random reads/writes at two
	// slaves; every read must return the model value, every write must land.
	rng := rand.New(rand.NewSource(42))
	e := sim.NewEngine(sim.Clock{})
	n := New(Config{Width: 4, Height: 4}, e.Cycle)
	ramA := mem.NewRAM("a", 0x1000, 0x400, 1)
	ramB := mem.NewRAM("b", 0x2000, 0x400, 2)
	if err := n.AttachSlave(15, ramA, ramA.Range()); err != nil {
		t.Fatal(err)
	}
	if err := n.AttachSlave(3, ramB, ramB.Range()); err != nil {
		t.Fatal(err)
	}
	// Pre-fill with known values; masters only read, plus write to their own
	// exclusive words (so the model stays simple under concurrency).
	for i := uint32(0); i < 0x100; i += 4 {
		ramA.LoadWords(0x1000+i, []uint32{0xA000 + i})
		ramB.LoadWords(0x2000+i, []uint32{0xB000 + i})
	}
	var masters []*simtest.Master
	nodes := []int{0, 1, 2, 4, 8, 12, 13, 14}
	for mi, node := range nodes {
		var steps []simtest.Step
		for k := 0; k < 12; k++ {
			off := uint32(rng.Intn(0x40)) * 4
			base := uint32(0x1000)
			if rng.Intn(2) == 0 {
				base = 0x2000
			}
			if rng.Intn(3) == 0 {
				// Exclusive write target per master.
				addr := base + 0x200 + uint32(mi*16) + uint32(k%4)*4
				steps = append(steps, simtest.Step{Gap: uint64(rng.Intn(4)),
					Req: ocp.Request{Cmd: ocp.Write, Addr: addr, Burst: 1, Data: []uint32{uint32(mi<<16 | k)}}})
			} else {
				steps = append(steps, simtest.Step{Gap: uint64(rng.Intn(4)),
					Req: ocp.Request{Cmd: ocp.Read, Addr: base + off, Burst: 1}})
			}
		}
		m := simtest.NewMaster(n.AttachMaster(node), steps)
		masters = append(masters, m)
		e.Add(m)
	}
	e.Add(n)
	_, err := e.Run(200_000, func() bool {
		for _, m := range masters {
			if !m.Done() {
				return false
			}
		}
		return n.Idle()
	})
	if err != nil {
		t.Fatalf("cross traffic did not drain: %v", err)
	}
	for mi, m := range masters {
		ri := 0
		for si, st := range m.Steps {
			if st.Req.Cmd != ocp.Read {
				continue
			}
			want := uint32(0xA000 + (st.Req.Addr - 0x1000))
			if st.Req.Addr >= 0x2000 {
				want = 0xB000 + (st.Req.Addr - 0x2000)
			}
			if m.RespData[si][0] != want {
				t.Fatalf("master %d read %d: got %#x, want %#x", mi, ri, m.RespData[si][0], want)
			}
			ri++
		}
	}
	if n.FlitsRouted() == 0 {
		t.Fatal("no flits routed")
	}
}

func TestIdleAfterDrain(t *testing.T) {
	script := [][]simtest.Step{{{Gap: 0, Req: ocp.Request{Cmd: ocp.Write, Addr: 0x1000, Burst: 1, Data: []uint32{1}}}}}
	e, n, ms, _ := rig(t, Config{}, []int{0}, script)
	if !n.Idle() {
		t.Fatal("fresh network should be idle")
	}
	e.Step() // master asserts
	if n.Idle() {
		t.Fatal("network with in-flight work should not be idle")
	}
	runAll(t, e, n, ms, 1000)
	if !n.Idle() {
		t.Fatal("drained network should be idle")
	}
}

// headTo returns the head flit of a packet bound to node dst, built the way
// the NIs build it.
func headTo(n *Network, dst int) *flit {
	p := &packet{length: 2}
	n.address(p, 0, dst)
	fl := p.flit(0, 0)
	return &fl
}

func TestXYRouteFunction(t *testing.T) {
	e := sim.NewEngine(sim.Clock{})
	n := New(Config{Width: 4, Height: 3}, e.Cycle)
	r5 := n.routers[5] // (1,1)
	cases := map[int]int{
		6: portE, 4: portW, 1: portN, 9: portS, 5: portL,
		7: portE, // X first even though Y also differs? dst 7 = (3,1): same row → E
		0: portW, // (0,0): X first → W
	}
	for dst, want := range cases {
		if got := r5.route(headTo(n, dst)); got != want {
			t.Errorf("route(5→%d) = %d, want %d", dst, got, want)
		}
	}
	// Dimension order: for dst 2 = (2,0) from 5 = (1,1): dx=+1 → E first.
	if r5.route(headTo(n, 2)) != portE {
		t.Error("XY routing must resolve X before Y")
	}
}

func TestAttachErrors(t *testing.T) {
	e := sim.NewEngine(sim.Clock{})
	n := New(Config{}, e.Cycle)
	ram := mem.NewRAM("r", 0, 0x100, 0)
	if err := n.AttachSlave(0, ram, ram.Range()); err != nil {
		t.Fatal(err)
	}
	ram2 := mem.NewRAM("r2", 0x80, 0x100, 0)
	if err := n.AttachSlave(1, ram2, ram2.Range()); err == nil {
		t.Fatal("overlapping slave range should fail")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("double NI attach should panic")
		}
	}()
	n.AttachMaster(0)
}

// wakeProbe is a minimal master that sleeps the way core.Device does: its
// handshake hands the waker to the port and, once the port took it,
// reports WakeNever while blocked, so only the port's wakes tick it.
type wakeProbe struct {
	ocp.Handshake
	state    int
	ticks    int
	acceptAt uint64
	respAt   uint64
}

// Tick asserts an unmapped read (state 0), waits for its accept (1) and
// its error response (2), then stops (3).
func (p *wakeProbe) Tick(c uint64) {
	p.ticks++
	if p.state == 3 {
		return
	}
	if p.state == 0 {
		p.state = 1
		p.Start(ocp.Request{Cmd: ocp.Read, Addr: 0xdead0000, Burst: 1})
	}
	accepted, r, done := p.Step()
	if accepted {
		p.acceptAt = c
		p.state = 2
	}
	if done {
		if !r.Err {
			panic("expected an error response for the unmapped read")
		}
		p.respAt = c
		p.state = 3
	}
}

func (p *wakeProbe) NextWake(now uint64) uint64 {
	switch p.state {
	case 0:
		return now
	case 3:
		return sim.WakeNever
	}
	return p.BlockedWake(now)
}

// TestDecodeErrorHintTiming pins the wakes of a decode-error read. The NI
// synthesises the error response (hasResp, respAt) inside the master's own
// TryRequest, while the accept handshake is still pending: the accept wake
// lands on a master that is mid-tick, and the response wake must wait for
// the accept. With RespCycles at 16 every kernel must reproduce the strict
// kernel's accept and response cycles, and the sleeping probe is ticked
// only for the assert, the accept and the response.
func TestDecodeErrorHintTiming(t *testing.T) {
	simtest.Differential(t, "decode-error timing", simtest.Kernel, func(t *testing.T, x simtest.Exec) []byte {
		e := sim.NewEngine(sim.Clock{})
		e.SetKernel(x.SimKernel())
		n := New(Config{RespCycles: 16}, e.Cycle)
		ram := mem.NewRAM("ram", 0x1000, 0x1000, 1)
		if err := n.AttachSlave(n.Nodes()-1, ram, ram.Range()); err != nil {
			t.Fatal(err)
		}
		p := &wakeProbe{Handshake: ocp.NewHandshake(n.AttachMaster(0))}
		e.Add(p)
		e.Add(n)
		if _, err := e.Run(10_000, func() bool { return p.state == 3 }); err != nil {
			t.Fatal(err)
		}
		if p.respAt == 0 {
			t.Fatalf("%v: probe never took the error response", x)
		}
		if sleeps := p.BlockedWake(0) == sim.WakeNever; !sleeps || (x.Kernel == "event" && p.ticks != 3) {
			t.Fatalf("%v: sleeps %v, ticked %d times, want 3", x, sleeps, p.ticks)
		}
		return fmt.Appendf(nil, "accept %d resp %d", p.acceptAt, p.respAt)
	})
}

// countWaker records the wakes an NI fires at its master.
type countWaker struct{ at []uint64 }

func (w *countWaker) Wake()            { panic("an NI wakes its master with WakeAt") }
func (w *countWaker) WakeAt(at uint64) { w.at = append(w.at, at) }

// TestNIWakesAtAcceptAndDelivery: an NI holding its master's waker fires it
// once when the request's tail enters the router, for the next cycle, when
// the accept is ready, and once when the read's response arrives, for the
// cycle it becomes takeable. A posted write wakes only for its accept. The
// network is driven by hand, without an engine.
func TestNIWakesAtAcceptAndDelivery(t *testing.T) {
	var cycle uint64
	n := New(Config{RespCycles: 3}, func() uint64 { return cycle })
	ram := mem.NewRAM("ram", 0x1000, 0x1000, 1)
	if err := n.AttachSlave(n.Nodes()-1, ram, ram.Range()); err != nil {
		t.Fatal(err)
	}
	w := &countWaker{}
	port := n.AttachMaster(0)
	if !ocp.PassWaker(port, w) {
		t.Fatal("the NI did not take its master's waker")
	}
	// present asserts req at cycle, then ticks the network until it wakes
	// the master, checks the wake is for the next cycle, and has the
	// master take the accept there.
	present := func(req ocp.Request) {
		t.Helper()
		woken := len(w.at)
		for ; len(w.at) == woken; cycle++ {
			if cycle > 1000 {
				t.Fatal("no accept wake")
			}
			if port.TryRequest(&req) {
				t.Fatalf("accepted at %d before any wake", cycle)
			}
			n.Tick(cycle)
		}
		if w.at[woken] != cycle {
			t.Fatalf("accept wake for cycle %d, fired at %d", w.at[woken], cycle-1)
		}
		if !port.TryRequest(&req) {
			t.Fatalf("woken for the accept at %d, but TryRequest refused", cycle)
		}
	}

	present(ocp.Request{Cmd: ocp.Read, Addr: 0x1008, Burst: 1})
	for n.Tick(cycle); len(w.at) == 1; n.Tick(cycle) {
		if _, ok := port.TakeResponse(); ok {
			t.Fatalf("response taken at %d before its wake", cycle)
		}
		if cycle++; cycle > 1000 {
			t.Fatal("no delivery wake")
		}
	}
	if want := cycle + 3; len(w.at) != 2 || w.at[1] != want {
		t.Fatalf("wakes %v after the delivery at %d, want the second for %d", w.at, cycle, want)
	}
	for cycle++; cycle < w.at[1]; cycle++ {
		if _, ok := port.TakeResponse(); ok {
			t.Fatalf("response takeable at %d, before its wake at %d", cycle, w.at[1])
		}
		n.Tick(cycle)
	}
	if _, ok := port.TakeResponse(); !ok {
		t.Fatalf("no response at its wake, cycle %d", cycle)
	}

	present(ocp.Request{Cmd: ocp.Write, Addr: 0x1010, Burst: 1, Data: []uint32{7}})
	for ; !n.Idle(); cycle++ {
		n.Tick(cycle)
	}
	if len(w.at) != 3 {
		t.Fatalf("wakes %v: a posted write must wake only for its accept", w.at)
	}
}
