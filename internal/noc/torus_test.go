package noc

import (
	"math/rand"
	"testing"

	"noctg/internal/mem"
	"noctg/internal/ocp"
	"noctg/internal/sim"
	"noctg/internal/simtest"
)

func TestParseTopology(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Topology
		ok   bool
	}{
		{"", Mesh, true},
		{"mesh", Mesh, true},
		{"torus", Torus, true},
		{"ring", 0, false},
	} {
		got, err := ParseTopology(tc.in)
		if (err == nil) != tc.ok {
			t.Fatalf("ParseTopology(%q) error = %v, want ok=%v", tc.in, err, tc.ok)
		}
		if tc.ok && got != tc.want {
			t.Fatalf("ParseTopology(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if Mesh.String() != "mesh" || Torus.String() != "torus" {
		t.Fatalf("Topology.String: %v / %v", Mesh, Torus)
	}
}

// TestTorusRouteShortestPath checks the per-hop routing decision: the torus
// must take the shorter way around each ring, ties toward east/south.
func TestTorusRouteShortestPath(t *testing.T) {
	n := New(Config{Width: 4, Height: 4, Topology: Torus}, func() uint64 { return 0 })
	cases := []struct {
		from, to int
		want     int
	}{
		{0, 1, portE},  // one hop east
		{0, 3, portW},  // wrap west is 1 hop, east is 3
		{3, 0, portE},  // wrap east is 1 hop
		{0, 2, portE},  // tie at half the ring goes east
		{2, 0, portE},  // tie from the other side also goes east
		{0, 12, portN}, // wrap north is 1 hop, south is 3
		{12, 0, portS}, // wrap south is 1 hop
		{0, 8, portS},  // vertical tie goes south
		{5, 5, portL},  // local delivery
		{1, 11, portE}, // X resolved before Y (dimension order)
	}
	for _, tc := range cases {
		got := n.routers[tc.from].route(headTo(n, tc.to))
		if got != tc.want {
			t.Fatalf("route %d->%d = %d, want %d", tc.from, tc.to, got, tc.want)
		}
	}
}

// TestTorusNeighborWraps checks the wrap-around links exist and close the
// rings in both dimensions.
func TestTorusNeighborWraps(t *testing.T) {
	n := New(Config{Width: 4, Height: 3, Topology: Torus}, func() uint64 { return 0 })
	if nb := n.neighbor(3, portE); nb.id != 0 {
		t.Fatalf("east wrap of node 3 = %d, want 0", nb.id)
	}
	if nb := n.neighbor(0, portW); nb.id != 3 {
		t.Fatalf("west wrap of node 0 = %d, want 3", nb.id)
	}
	if nb := n.neighbor(0, portN); nb.id != 8 {
		t.Fatalf("north wrap of node 0 = %d, want 8", nb.id)
	}
	if nb := n.neighbor(8, portS); nb.id != 0 {
		t.Fatalf("south wrap of node 8 = %d, want 0", nb.id)
	}
}

// TestMeshNeighborStillPanics pins the mesh contract: edge routers have no
// wrap links.
func TestMeshNeighborStillPanics(t *testing.T) {
	n := New(Config{Width: 4, Height: 3}, func() uint64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("mesh neighbor over the edge must panic")
		}
	}()
	n.neighbor(3, portE)
}

// TestTorusWrapShortensLatency sends a read across the full row width on a
// mesh and on a torus: the torus must deliver strictly faster because the
// wrap link turns W-1 hops into one.
func TestTorusWrapShortensLatency(t *testing.T) {
	latency := func(topo Topology) uint64 {
		e := sim.NewEngine(sim.Clock{})
		n := New(Config{Width: 6, Height: 2, Topology: topo}, e.Cycle)
		ram := mem.NewRAM("ram", 0x1000, 0x1000, 1)
		// Master at node 0, RAM at the end of the same row (node 5).
		if err := n.AttachSlave(5, ram, ram.Range()); err != nil {
			t.Fatal(err)
		}
		m := simtest.NewMaster(n.AttachMaster(0),
			[]simtest.Step{{Req: ocp.Request{Cmd: ocp.Read, Addr: 0x1004, Burst: 1}}})
		e.Add(m)
		e.Add(n)
		if _, err := e.Run(2000, func() bool { return m.Done() && n.Idle() }); err != nil {
			t.Fatalf("%v: %v", topo, err)
		}
		return m.RespCycles[0]
	}
	mesh, torus := latency(Mesh), latency(Torus)
	if torus >= mesh {
		t.Fatalf("torus read latency %d not below mesh %d", torus, mesh)
	}
}

// TestTorusHeavyCrossTrafficAllDelivered is the torus version of the mesh
// stress test: random all-to-one and neighbour traffic with writes verified
// in memory, on a fabric whose rings exercise the wrap links and dateline
// VCs continuously.
func TestTorusHeavyCrossTrafficAllDelivered(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e := sim.NewEngine(sim.Clock{})
	n := New(Config{Width: 4, Height: 4, Topology: Torus, BufferFlits: 2}, e.Cycle)
	ram := mem.NewRAM("ram", 0x1000, 0x4000, 1)
	if err := n.AttachSlave(15, ram, ram.Range()); err != nil {
		t.Fatal(err)
	}
	nodes := []int{0, 1, 2, 3, 4, 7, 8, 11, 12, 13}
	var masters []*simtest.Master
	type expect struct{ addr, val uint32 }
	var writes []expect
	for mi, node := range nodes {
		var script []simtest.Step
		for k := 0; k < 12; k++ {
			addr := uint32(0x1000 + 4*(mi*64+k))
			if rng.Intn(2) == 0 {
				val := rng.Uint32()
				script = append(script, simtest.Step{
					Gap: uint64(rng.Intn(5)),
					Req: ocp.Request{Cmd: ocp.Write, Addr: addr, Burst: 1, Data: []uint32{val}},
				})
				writes = append(writes, expect{addr, val})
			} else {
				burst := 1 + rng.Intn(4)
				cmd := ocp.Read
				if burst > 1 {
					cmd = ocp.BurstRead
				}
				script = append(script, simtest.Step{
					Gap: uint64(rng.Intn(5)),
					Req: ocp.Request{Cmd: cmd, Addr: addr, Burst: burst},
				})
			}
		}
		m := simtest.NewMaster(n.AttachMaster(node), script)
		masters = append(masters, m)
		e.Add(m)
	}
	e.Add(n)
	if _, err := e.Run(200_000, func() bool {
		for _, m := range masters {
			if !m.Done() {
				return false
			}
		}
		return n.Idle()
	}); err != nil {
		t.Fatalf("torus cross traffic did not drain: %v", err)
	}
	for _, w := range writes {
		if got := ram.PeekWord(w.addr); got != w.val {
			t.Fatalf("write %#x lost: got %#x want %#x", w.addr, got, w.val)
		}
	}
	if n.st.livePackets != 0 {
		t.Fatalf("%d packets leaked from the pool", n.st.livePackets)
	}
	if n.NextWake(e.Cycle()) != sim.WakeNever {
		t.Fatal("drained torus must report WakeNever")
	}
}

// TestTorusMinimalBuffersStillDeliver runs ring-saturating traffic with
// 1-flit FIFOs: the dateline VCs must keep the wrap rings deadlock-free
// even in the tightest configuration.
func TestTorusMinimalBuffersStillDeliver(t *testing.T) {
	e := sim.NewEngine(sim.Clock{})
	n := New(Config{Width: 3, Height: 3, Topology: Torus, BufferFlits: 1}, e.Cycle)
	ram := mem.NewRAM("ram", 0x1000, 0x1000, 1)
	if err := n.AttachSlave(8, ram, ram.Range()); err != nil {
		t.Fatal(err)
	}
	var masters []*simtest.Master
	for _, node := range []int{0, 1, 2, 3, 4, 5, 6, 7} {
		var script []simtest.Step
		for k := 0; k < 6; k++ {
			script = append(script, simtest.Step{
				Req: ocp.Request{Cmd: ocp.BurstWrite, Addr: uint32(0x1000 + 4*((node*8+k)%64)),
					Burst: 4, Data: []uint32{1, 2, 3, 4}},
			})
		}
		m := simtest.NewMaster(n.AttachMaster(node), script)
		masters = append(masters, m)
		e.Add(m)
	}
	e.Add(n)
	if _, err := e.Run(500_000, func() bool {
		for _, m := range masters {
			if !m.Done() {
				return false
			}
		}
		return n.Idle()
	}); err != nil {
		t.Fatalf("minimal-buffer torus deadlocked or stalled: %v", err)
	}
}
