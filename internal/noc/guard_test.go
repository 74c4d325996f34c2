package noc

import (
	"math/bits"
	"reflect"
	"strings"
	"testing"

	"noctg/internal/guard"
)

// TestCheckInvariantsCatchesScheduleCorruption: the masks, caches, counts
// and credit views the tick trusts in place of scans are redundant with
// the tables and FIFOs they summarise, so CheckInvariants must notice each
// of them going wrong — as a conservation violation that names the place.
func TestCheckInvariantsCatchesScheduleCorruption(t *testing.T) {
	spec := fabricSpec{topo: Torus, w: 4, h: 3, buf: 2, traffic: trafficHotspot, seed: 99}
	// busyRouter returns a router holding a flit and one of its occupied
	// FIFOs; idleRouter one holding none.
	busyRouter := func(n *Network) (*router, int) {
		for _, r := range n.routers {
			if r.occ != 0 && r.held != 0 {
				for b := 0; b < numPorts*numVC; b++ {
					if r.occ>>b&1 != 0 {
						return r, b
					}
				}
			}
		}
		t.Fatal("no router holds both a flit and a wormhole")
		return nil, 0
	}
	idleRouter := func(n *Network) *router {
		for _, r := range n.routers {
			if r.occ == 0 {
				return r
			}
		}
		t.Fatal("every router holds a flit")
		return nil
	}
	cases := []struct {
		name    string
		parts   int
		corrupt func(n *Network)
		names   string // what the violation message must mention
	}{
		{"occupancy bit cleared", 0, func(n *Network) {
			r, b := busyRouter(n)
			r.occ &^= 1 << b
		}, "occupancy bit false"},
		{"occupancy bit set on an empty FIFO", 0, func(n *Network) {
			r := idleRouter(n)
			r.occ |= 1 << (portE*numVC + vcResp)
		}, "port e vc resp: occupancy bit true"},
		{"held bit cleared", 0, func(n *Network) {
			r, _ := busyRouter(n)
			r.held &= r.held - 1
		}, "held bit false"},
		{"held bit set on a free channel", 0, func(n *Network) {
			r := idleRouter(n)
			for b := 0; b < numPorts*numVC; b++ {
				if r.held>>b&1 == 0 {
					r.held |= 1 << b
					return
				}
			}
		}, "held bit true"},
		{"request cache points elsewhere", 0, func(n *Network) {
			r, b := busyRouter(n)
			r.want[b] = (r.want[b] + 3) % numFIFOs
		}, "request cache"},
		{"request cache on an empty FIFO", 0, func(n *Network) {
			idleRouter(n).want[portW*numVC+vcReq] = wantNone
		}, "port w vc req: request cache holds -2 for an empty input FIFO"},
		{"request count drifts", 0, func(n *Network) {
			r, _ := busyRouter(n)
			r.reqN[portL*numVC+vcResp]++
		}, "port local vc resp: request count"},
		{"request mask bit cleared", 0, func(n *Network) {
			for _, r := range n.routers {
				if r.reqs != 0 {
					r.reqs &= r.reqs - 1
					return
				}
			}
			t.Fatal("no front head flit requests a channel")
		}, "request mask bit false"},
		{"credit view drifts", 0, func(n *Network) {
			idleRouter(n).cred[portS*numVC+vcReq]--
		}, "port s vc req: credit view"},
		{"credit view of a cut link drifts", 2, func(n *Network) {
			for _, r := range n.routers {
				if r.cutOut != 0 {
					r.cred[bits.TrailingZeros8(r.cutOut)*numVC+vcResp]++
					return
				}
			}
			t.Fatal("no router exports over a cut link")
		}, "vc resp: credit view"},
		{"occupied router missing from the active set", 0, func(n *Network) {
			r, _ := busyRouter(n)
			r.st.active[r.id>>6] &^= 1 << (r.id & 63)
		}, "active bit false"},
		{"empty router left in the active set", 2, func(n *Network) {
			r := idleRouter(n)
			r.st.active[r.id>>6] |= 1 << (r.id & 63)
		}, "active bit true"},
		{"router active in a foreign domain", 2, func(n *Network) {
			r, _ := busyRouter(n)
			foreign := n.regions[1-r.st.index]
			foreign.st.active[r.id>>6] |= 1 << (r.id & 63)
		}, "active bit true in domain"},
		{"busy-NI count drifts", 0, func(n *Network) { n.st.busyNIs++ }, "busy NIs"},
		{"busy-NI count drifts in a region", 2, func(n *Network) { n.regions[1].st.busyNIs-- }, "busy NIs"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := newFabricRig(t, spec, tc.parts)
			for g.cycle < 300 {
				g.step()
			}
			if v := g.net.CheckInvariants(); v != nil {
				t.Fatalf("before the corruption: %v", v)
			}
			tc.corrupt(g.net)
			v := g.net.CheckInvariants()
			if v == nil {
				t.Fatal("corruption went unnoticed")
			}
			if v.Kind != guard.KindConservation {
				t.Fatalf("violation kind %s, want %s: %s", v.Kind, guard.KindConservation, v.Msg)
			}
			if !strings.Contains(v.Msg, "node ") && !strings.Contains(v.Msg, "domain ") {
				t.Fatalf("violation does not say where: %s", v.Msg)
			}
			if !strings.Contains(v.Msg, tc.names) {
				t.Fatalf("violation %q does not mention %q", v.Msg, tc.names)
			}
		})
	}
}

// TestGuardDiagnoseQueues: the dump lists exactly the non-empty input
// FIFOs, in router and port order, each with its occupancy and its head
// flit's source, destination and age — on an unpartitioned network and
// on two row bands, with the stuck flits in different bands.
func TestGuardDiagnoseQueues(t *testing.T) {
	for _, parts := range []int{0, 2} {
		tr := newTrap(t, parts, 5)
		east, north := tr.packet(0, 5), tr.packet(7, 5)
		tr.put(1, portW, east, 0, 10)  // a whole packet, its head arrived at 10
		tr.put(8, portW, north, 1, 12) // two body flits, the head gone ahead
		d := tr.prod.Diagnose(40)
		want := []guard.QueueDiag{
			{Node: 1, Port: "w", VC: "req", Flits: 3, HeadSrc: 0, HeadDst: 5, HeadAge: 30},
			{Node: 8, Port: "w", VC: "req", Flits: 2, HeadSrc: 7, HeadDst: 5, HeadAge: 28},
		}
		if !reflect.DeepEqual(d.Queues, want) {
			t.Fatalf("parts=%d: dump queues\n%+v\nwant\n%+v", parts, d.Queues, want)
		}
		if d.ResidentFlits != 5 || d.LivePackets != 2 {
			t.Fatalf("parts=%d: dump accounts %d resident flits and %d live packets, want 5 and 2",
				parts, d.ResidentFlits, d.LivePackets)
		}
		if parts > 0 && tr.prod.RegionOf(1) == tr.prod.RegionOf(8) {
			t.Fatalf("nodes 1 and 8 share band %d", tr.prod.RegionOf(1))
		}
	}
}
