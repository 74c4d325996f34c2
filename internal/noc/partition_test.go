package noc

import (
	"testing"

	"noctg/internal/sim"
)

// newNet builds an unattached network for partition-geometry tests.
func newNet(cfg Config) *Network {
	e := sim.NewEngine(sim.Clock{})
	return New(cfg, e.Cycle)
}

// TestPartitionBands: k contiguous row bands must tile [0, Height) exactly,
// own every router in their rows, and answer RegionOf consistently for
// every fabric node.
func TestPartitionBands(t *testing.T) {
	cases := []struct {
		w, h, k int
		bands   [][2]int
	}{
		{4, 6, 3, [][2]int{{0, 2}, {2, 4}, {4, 6}}},
		{4, 5, 2, [][2]int{{0, 2}, {2, 5}}},
		{3, 4, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}}},
		{5, 3, 1, [][2]int{{0, 3}}},
	}
	for _, tc := range cases {
		n := newNet(Config{Width: tc.w, Height: tc.h})
		regions := n.Partition(tc.k)
		if len(regions) != len(tc.bands) {
			t.Fatalf("%dx%d k=%d: %d regions, want %d", tc.w, tc.h, tc.k, len(regions), len(tc.bands))
		}
		routers := 0
		for i, rg := range regions {
			if rg.Index() != i {
				t.Fatalf("region %d reports index %d", i, rg.Index())
			}
			if rg.y0 != tc.bands[i][0] || rg.y1 != tc.bands[i][1] {
				t.Fatalf("%dx%d k=%d region %d band [%d,%d), want [%d,%d)",
					tc.w, tc.h, tc.k, i, rg.y0, rg.y1, tc.bands[i][0], tc.bands[i][1])
			}
			if len(rg.routers) != tc.w*(rg.y1-rg.y0) {
				t.Fatalf("region %d owns %d routers, want %d", i, len(rg.routers), tc.w*(rg.y1-rg.y0))
			}
			for _, r := range rg.routers {
				if int(r.y) < rg.y0 || int(r.y) >= rg.y1 {
					t.Fatalf("region %d [%d,%d) owns router at row %d", i, rg.y0, rg.y1, r.y)
				}
			}
			routers += len(rg.routers)
		}
		if routers != tc.w*tc.h {
			t.Fatalf("partition covers %d routers, want %d", routers, tc.w*tc.h)
		}
		for node := 0; node < n.Nodes(); node++ {
			row := node / tc.w
			want := 0
			for i, b := range tc.bands {
				if row >= b[0] && row < b[1] {
					want = i
				}
			}
			if got := n.RegionOf(node); got != want {
				t.Fatalf("RegionOf(%d) = %d, want %d", node, got, want)
			}
		}
	}
}

// TestPartitionClamps: out-of-range shard counts clamp to [1, Height], so a
// caller can request more parallelism than rows exist without special-casing.
func TestPartitionClamps(t *testing.T) {
	if got := len(newNet(Config{Width: 4, Height: 3}).Partition(8)); got != 3 {
		t.Fatalf("k=8 on height 3: %d regions, want 3", got)
	}
	if got := len(newNet(Config{Width: 4, Height: 3}).Partition(0)); got != 1 {
		t.Fatalf("k=0: %d regions, want 1", got)
	}
	if got := len(newNet(Config{Width: 4, Height: 3}).Partition(-2)); got != 1 {
		t.Fatalf("k=-2: %d regions, want 1", got)
	}
}

// TestPartitionTwicePanics: the partition is a one-shot structural change.
func TestPartitionTwicePanics(t *testing.T) {
	n := newNet(Config{Width: 4, Height: 4})
	n.Partition(2)
	defer func() {
		if recover() == nil {
			t.Fatal("second Partition did not panic")
		}
	}()
	n.Partition(2)
}

// cutCounts tallies a region's boundary links.
func cutCounts(rg *Region) (exports, imports int) {
	return len(rg.exports), len(rg.imports)
}

// TestPartitionMeshCuts: on a mesh, only the links crossing a band boundary
// are cut — Width links per direction per interior boundary — and each cut
// link must feed the opposite port of a router in the neighbouring band.
func TestPartitionMeshCuts(t *testing.T) {
	const w, h = 4, 4
	n := newNet(Config{Width: w, Height: h})
	regions := n.Partition(2)
	for i, rg := range regions {
		ex, im := cutCounts(rg)
		if ex != w || im != w {
			t.Fatalf("mesh region %d: %d exports / %d imports, want %d/%d", i, ex, im, w, w)
		}
	}
	// Every cut pair: an S output of a row-1 router into the N input of the
	// row-2 router below it, and vice versa.
	for _, cl := range regions[0].exports {
		if cl.dst.y != 2 || cl.inPort != portN {
			t.Fatalf("region 0 export feeds router (%d,%d) port %d, want row 2 port N", cl.dst.x, cl.dst.y, cl.inPort)
		}
	}
	for _, cl := range regions[1].exports {
		if cl.dst.y != 1 || cl.inPort != portS {
			t.Fatalf("region 1 export feeds router (%d,%d) port %d, want row 1 port S", cl.dst.x, cl.dst.y, cl.inPort)
		}
	}
	// The uncut interior links must stay local: rows 0<->1 and 2<->3.
	for _, r := range n.routers {
		for dir := portN; dir < portL; dir++ {
			crossing := (r.y == 1 && dir == portS) || (r.y == 2 && dir == portN)
			if cut := r.cutOut>>dir&1 != 0; cut != crossing {
				t.Fatalf("router (%d,%d) dir %d: cut=%v, want crossing=%v", r.x, r.y, dir, cut, crossing)
			}
		}
	}
}

// TestPartitionTorusWrapCuts: a torus band partition must also cut the
// north-south wrap links (row 0 <-> row H-1), doubling the boundary of a
// two-band split — and a one-band partition must cut nothing at all, wrap
// links included.
func TestPartitionTorusWrapCuts(t *testing.T) {
	const w, h = 4, 4
	n := newNet(Config{Width: w, Height: h, Topology: Torus})
	regions := n.Partition(2)
	for i, rg := range regions {
		ex, im := cutCounts(rg)
		if ex != 2*w || im != 2*w {
			t.Fatalf("torus region %d: %d exports / %d imports, want %d/%d", i, ex, im, 2*w, 2*w)
		}
	}
	wrap := 0
	for _, cl := range regions[0].exports {
		if cl.dst.y == 3 {
			wrap++
		} else if cl.dst.y != 2 {
			t.Fatalf("region 0 export feeds row %d, want 2 or 3", cl.dst.y)
		}
	}
	if wrap != w {
		t.Fatalf("region 0 has %d wrap exports, want %d", wrap, w)
	}

	single := newNet(Config{Width: w, Height: h, Topology: Torus}).Partition(1)
	if ex, im := cutCounts(single[0]); ex != 0 || im != 0 {
		t.Fatalf("one-band torus partition has %d exports / %d imports, want none", ex, im)
	}
}

// crossingPacket takes a packet of the given length from rg's pool, bound
// from cut link cl's exporter to its importer.
func crossingPacket(rg *Region, cl *cutLink, length int) *packet {
	p := rg.st.getPacket()
	rg.net.address(p, int(cl.src.id), int(cl.dst.id))
	p.length = length
	return p
}

// TestExchangeDrainsInOrder: flits parked in an import ring must land in
// the destination FIFO in push order at the next Exchange, the import count
// must be reported, and export credits must snapshot the importer's pops.
func TestExchangeDrainsInOrder(t *testing.T) {
	n := newNet(Config{Width: 4, Height: 4})
	regions := n.Partition(2)
	cl := regions[0].exports[0]
	pkt := crossingPacket(regions[0], cl, 3)

	for i := 0; i < 3; i++ {
		fl := pkt.flit(i, 0)
		cl.push(0, &fl)
	}
	if cl.pushed[0] != 3 {
		t.Fatalf("pushed[0] = %d, want 3", cl.pushed[0])
	}
	if got := regions[1].Exchange(); got != 3 {
		t.Fatalf("Exchange imported %d, want 3", got)
	}
	b := cl.inPort*numVC + 0
	if got := cl.dst.queued(b); got != 3 {
		t.Fatalf("destination FIFO holds %d flits, want 3", got)
	}
	for i := 0; i < 3; i++ {
		idx := cl.dst.front(b).idx
		if cl.dst.pop(b, 0); int(idx) != i {
			t.Fatalf("flit %d popped with idx %d — ring reordered", i, idx)
		}
	}
	// The importer's pops become the exporter's credit at its own boundary.
	if cl.popped[0] != 3 {
		t.Fatalf("popped[0] = %d after three pops, want 3", cl.popped[0])
	}
	regions[0].Exchange()
	if cl.credit[0] != 3 {
		t.Fatalf("credit[0] = %d after boundary, want 3", cl.credit[0])
	}
}

// TestExchangeReturnsForeignPackets: a packet that retires away from home
// (a posted write's request stays at the slave) must ride the return list
// back into its home region's pool at the home region's next Exchange —
// otherwise the master region allocates per write forever while the slave
// region's pool grows without bound.
func TestExchangeReturnsForeignPackets(t *testing.T) {
	n := newNet(Config{Width: 4, Height: 4})
	regions := n.Partition(2)
	h0, h1 := &regions[0].st, &regions[1].st

	p := h0.getPacket() // issued in region 0...
	if p.home != h0 {
		t.Fatal("fresh packet not stamped with its home pool")
	}
	pooled := len(h1.pktPool)
	h1.putPacket(p) // ...retires in region 1
	if len(h1.pktPool) != pooled {
		t.Fatal("foreign packet pooled locally instead of being returned")
	}
	if len(h1.returns[0]) != 1 {
		t.Fatalf("return list toward region 0 holds %d packets, want 1", len(h1.returns[0]))
	}
	regions[0].Exchange()
	if len(h1.returns[0]) != 0 || len(h0.pktPool) == 0 || h0.pktPool[len(h0.pktPool)-1] != p {
		t.Fatal("home Exchange did not reclaim the returned packet")
	}
	if got := h0.getPacket(); got != p || got.home != h0 {
		t.Fatal("reclaimed packet not reused from the home pool")
	}
}

// TestExchangeAllocFree: the steady-state boundary path — push into the
// ring, drain at Exchange, refresh credits — must not allocate. This is the
// guard for the cross-shard flit exchange hot path; the platform-level
// sharded run has the same property end to end.
func TestExchangeAllocFree(t *testing.T) {
	n := newNet(Config{Width: 4, Height: 4})
	regions := n.Partition(2)
	cl := regions[0].exports[0]
	pkt := crossingPacket(regions[0], cl, 4)
	b := cl.inPort*numVC + 0
	if avg := testing.AllocsPerRun(200, func() {
		for i := 0; i < 4; i++ {
			fl := pkt.flit(i, 0)
			cl.push(0, &fl)
		}
		regions[1].Exchange()
		for cl.dst.queued(b) > 0 {
			cl.dst.pop(b, 0)
		}
		regions[0].Exchange()
		regions[1].st.residentFlits = 0
	}); avg != 0 {
		t.Fatalf("cut-link exchange path allocates %.1f times per boundary, want 0", avg)
	}
}
