package noc

import (
	"fmt"
	"testing"

	"noctg/internal/mem"
	"noctg/internal/ocp"
)

// This file keeps the exhaustive-scan schedule the fabric used before it
// learned to skip what cannot move, as a test-only reference: every router
// ticks every cycle in id order, every (output, VC) pair is probed in
// round-robin order, and a free channel's allocation looks at every input
// port and recomputes the route of every head flit it meets from its
// packet's destination node. No occupancy mask, candidate set, request
// summary, active set or busy flag is consulted.
// Only the primitives that move a flit (grant, forward, deliver, pushIn, the
// NI state machines, Exchange) are shared with production, so what the
// tests below compare is the schedule and nothing else.

// referenceTick is Network.tick without the active set or the NI filters.
func referenceTick(masters []*masterNI, slaves []*slaveNI, routers []*router, cycle uint64) {
	for _, m := range masters {
		if m.state == niInjecting {
			m.inject(cycle)
		}
	}
	for _, s := range slaves {
		s.tick(cycle)
	}
	for _, r := range routers {
		r.referenceTick(cycle)
	}
}

// referenceTick is router.tick over all numPorts×numVC channels.
func (r *router) referenceTick(cycle uint64) {
	for o := 0; o < numPorts; o++ {
		for k := 0; k < numVC; k++ {
			vc := (int(r.rrVC[o]) + k) % numVC
			if r.referenceTryForward(o, vc, cycle) {
				break
			}
		}
	}
}

// referenceTryForward is router.tick's probe of one channel, with the
// exhaustive allocation scan.
func (r *router) referenceTryForward(o, ovc int, cycle uint64) bool {
	if r.alloc[o][ovc].in < 0 {
	scan:
		for k := 0; k < numPorts; k++ {
			i := (int(r.rrIn[o][ovc]) + k) % numPorts
			for _, invc := range [2]int{baseVC(ovc), datelineVC(ovc)} {
				b := i*numVC + invc
				if r.queued(b) == 0 {
					continue
				}
				fl := r.front(b)
				if !fl.head() || fl.arrived >= cycle {
					continue
				}
				if r.n.cfg.nextPort(int(r.id), fl.pkt.dst) != o || r.outVC(i, invc, o) != ovc {
					continue
				}
				r.grant(o, ovc, i, invc)
				break scan
			}
		}
	}
	return r.forward(o, ovc, cycle)
}

// stepReference advances the rig one cycle through the reference schedule.
func (g *fabricRig) stepReference() {
	g.stepWith(func(cycle uint64) {
		if g.regions == nil {
			referenceTick(g.net.masters, g.net.slaves, g.net.routers, cycle)
			return
		}
		for _, rg := range g.regions {
			referenceTick(rg.masters, rg.slaves, rg.routers, cycle)
		}
	})
}

// describeWord locates word i of an appendFabricState encoding, for failure
// messages: the routers' variable-length records come first.
func describeWord(n *Network, i int) string {
	at := 0
	for _, r := range n.routers {
		for p := 0; p < numPorts; p++ {
			for v := 0; v < numVC; v++ {
				end := at + 1 + 2*r.queued(p*numVC+v)
				if i < end {
					return fmt.Sprintf("router %d input %s/%s, word %d of its record", r.id, portNames[p], vcNames[v], i-at)
				}
				at = end
			}
		}
		if i == at {
			return fmt.Sprintf("router %d VC round-robin pointers", r.id)
		}
		at++
	}
	return fmt.Sprintf("word %d past the routers (domain accounts, then NIs)", i-at)
}

// lockstep runs spec on two identically built rigs — prod through the
// production schedule, ref through the reference — comparing the complete
// fabric state after every cycle and the production rig's invariants now
// and then.
func lockstep(t testing.TB, spec fabricSpec, parts int, schedule []byte, cycles uint64) {
	t.Helper()
	prod, ref := newFabricRig(t, spec, parts), newFabricRig(t, spec, parts)
	prod.schedule, ref.schedule = schedule, schedule
	var pw, rw []uint64
	for prod.cycle < cycles {
		prod.step()
		ref.stepReference()
		pw, rw = appendFabricState(pw[:0], prod.net), appendFabricState(rw[:0], ref.net)
		if len(pw) != len(rw) {
			t.Fatalf("%v parts=%d cycle %d: production state has %d words, reference %d",
				spec, parts, prod.cycle-1, len(pw), len(rw))
		}
		for i := range pw {
			if pw[i] != rw[i] {
				t.Fatalf("%v parts=%d cycle %d: production diverged from the exhaustive scan at %s: %#x, reference %#x",
					spec, parts, prod.cycle-1, describeWord(ref.net, i), pw[i], rw[i])
			}
		}
		if prod.cycle%61 == 0 {
			if v := prod.net.CheckInvariants(); v != nil {
				t.Fatalf("%v parts=%d cycle %d: %v", spec, parts, prod.cycle-1, v)
			}
		}
	}
}

// TestWorklistMatchesExhaustiveScan drives production and reference through
// every pinned configuration, unpartitioned and as two row bands.
func TestWorklistMatchesExhaustiveScan(t *testing.T) {
	for _, spec := range digestSpecs() {
		for _, parts := range []int{0, 2} {
			lockstep(t, spec, parts, nil, 600)
		}
	}
}

// trap is a hand-built fabric state for the directed cases below: a 3×3
// mesh (router 4 in the centre) with slave NIs where the case wants flits
// to be ejected, built twice so production and reference can run side by
// side.
type trap struct {
	t         *testing.T
	prod, ref *Network
	cycle     uint64
	slaveAt   map[int]int // node -> index of the slave attached there
}

func newTrap(t *testing.T, parts int, slaveNodes ...int) *trap {
	tr := &trap{t: t, slaveAt: map[int]int{}}
	for j, node := range slaveNodes {
		tr.slaveAt[node] = j
	}
	build := func() *Network {
		n := New(Config{Width: 3, Height: 3, BufferFlits: 4}, func() uint64 { return tr.cycle })
		for j, node := range slaveNodes {
			ram := mem.NewRAM(fmt.Sprintf("ram%d", j), slaveBase(j), 1<<12, 0)
			if err := n.AttachSlave(node, ram, ram.Range()); err != nil {
				t.Fatal(err)
			}
		}
		if parts > 0 {
			n.Partition(parts)
		}
		return n
	}
	tr.prod, tr.ref = build(), build()
	return tr
}

// trapFlits is the length of every trap packet: a posted single-word write
// (head, address flit, payload).
const trapFlits = 3

// packet makes one posted single-word write from src to the slave at dst on
// both networks and returns the pair.
func (tr *trap) packet(src, dst int) [2]*packet {
	var pair [2]*packet
	for i, n := range []*Network{tr.prod, tr.ref} {
		p := n.routers[src].st.getPacket()
		n.address(p, src, dst)
		p.length = trapFlits
		p.req = ocp.Request{Cmd: ocp.Write, Addr: slaveBase(tr.slaveAt[dst]), Burst: 1, Data: []uint32{7}}
		pair[i] = p
	}
	return pair
}

// put places flits from..trapFlits-1 of the packet pair into input FIFO
// (port, vcReq) of the given router on both networks, as if they had
// arrived one per cycle from cycle arrived on: over the link from port's
// neighbour, which spent a credit on each, or from the local NI.
func (tr *trap) put(node, port int, pkt [2]*packet, from int, arrived uint64) {
	for i, n := range []*Network{tr.prod, tr.ref} {
		r := n.routers[node]
		for idx := from; idx < trapFlits; idx++ {
			fl := pkt[i].flit(idx, arrived+uint64(idx-from))
			r.pushIn(port, vcReq, &fl)
			r.st.residentFlits++
			if port != portL {
				r.nb[port].cred[opposite(port)*numVC+vcReq]--
			}
		}
	}
}

// own makes input FIFO (in, vcReq) the wormhole owner of channel (o, vcReq)
// at the given router on both networks — a packet whose head has already
// gone that way.
func (tr *trap) own(node, o, in int) {
	for _, n := range []*Network{tr.prod, tr.ref} {
		n.routers[node].grant(o, vcReq, in, vcReq)
	}
}

// step ticks production and reference one cycle (with the boundary exchange
// on a partitioned pair) and requires identical state and sound production
// invariants.
func (tr *trap) step() {
	tr.t.Helper()
	if tr.prod.regions == nil {
		tr.prod.Tick(tr.cycle)
		referenceTick(tr.ref.masters, tr.ref.slaves, tr.ref.routers, tr.cycle)
	} else {
		for i, rg := range tr.prod.regions {
			rg.Tick(tr.cycle)
			rr := tr.ref.regions[i]
			referenceTick(rr.masters, rr.slaves, rr.routers, tr.cycle)
		}
		for i, rg := range tr.prod.regions {
			rg.Exchange()
			tr.ref.regions[i].Exchange()
		}
	}
	pw, rw := appendFabricState(nil, tr.prod), appendFabricState(nil, tr.ref)
	for i := range pw {
		if i >= len(rw) || pw[i] != rw[i] {
			tr.t.Fatalf("cycle %d: production diverged from the exhaustive scan at %s", tr.cycle, describeWord(tr.ref, i))
		}
	}
	if v := tr.prod.CheckInvariants(); v != nil {
		tr.t.Fatalf("cycle %d: %v", tr.cycle, v)
	}
	tr.cycle++
}

// routed returns production's flit-hop count.
func (tr *trap) routed() uint64 { return tr.prod.FlitsRouted() }

// TestTrapSameCycleDoublePop: one input FIFO holds the tail of a packet
// leaving north and, behind it, the head of a packet leaving east. North
// is probed first; popping the tail surfaces the head, which must still win
// the (later) east output in the same tick — the candidate set has to be
// topped up after every forward, not computed once per tick.
func TestTrapSameCycleDoublePop(t *testing.T) {
	tr := newTrap(t, 0, 1, 5)
	tr.cycle = 10
	north, east := tr.packet(3, 1), tr.packet(3, 5)
	tr.put(4, portW, north, trapFlits-1, 5)
	tr.own(4, portN, portW)
	tr.own(1, portL, portS) // its head is already through router 1 as well
	tr.put(4, portW, east, 0, 6)
	tr.step()
	if got := tr.routed(); got != 2 {
		t.Fatalf("%d flits moved in the tick, want the tail north and the head east", got)
	}
	if r5 := tr.prod.routers[5]; r5.queued(portW*numVC+vcReq) != 1 || !r5.front(portW*numVC+vcReq).head() {
		t.Fatal("the surfaced head flit did not go east in the same tick")
	}
	for i := 0; i < 10; i++ {
		tr.step()
	}
	if got := tr.prod.RetiredPackets(); got != 2 {
		t.Fatalf("%d packets retired, want both", got)
	}
}

// TestTrapStaleOwnerSuperset: a tail dropped upstream leaves channel owners
// behind, and the next packet's head then fronts the owning FIFO asking for
// a different output. An owned channel must stay a candidate whatever the
// owner's front flit asks for — the exhaustive scan forwards through it —
// both when the stale output is probed before the requested one (the head
// itself leaves the wrong way) and after it (the head is granted its own
// output as well, the FIFO then owns two channels, and the body flit behind
// it takes the stale one in the same tick).
func TestTrapStaleOwnerSuperset(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stale int
		head  int // where the head flit is found after the tick
	}{
		{"stale output probed first", portN, 1},
		{"requested output probed first", portS, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := newTrap(t, 0, 1, 5, 7)
			tr.cycle = 10
			east := tr.packet(3, 5)
			tr.own(4, tc.stale, portW)
			tr.put(4, portW, east, 0, 5)
			if tr.step(); tr.routed() == 0 {
				t.Fatal("nothing moved through the stale owner's router")
			}
			found := -1
			for _, r := range tr.prod.routers {
				for p := 0; p < numPorts; p++ {
					if b := p*numVC + vcReq; r.queued(b) > 0 && r.front(b).head() {
						found = int(r.id)
					}
				}
			}
			if found != tc.head {
				t.Fatalf("head flit at router %d after the tick, the exhaustive scan puts it at %d", found, tc.head)
			}
			for i := 0; i < 6; i++ {
				tr.step()
			}
		})
	}
}

// TestTrapLateArrivalStaysActive: router 0 drains during its own tick and
// is retired from the active set; router 1, ticking after it, then pushes a
// flit into it. Router 0 must be back in the set for the next cycle.
func TestTrapLateArrivalStaysActive(t *testing.T) {
	tr := newTrap(t, 0, 0, 2)
	tr.cycle = 10
	leaving, arriving := tr.packet(3, 2), tr.packet(2, 0)
	tr.put(0, portS, leaving, trapFlits-1, 5) // tail heading east, out of router 0
	tr.own(0, portE, portS)
	tr.put(1, portE, arriving, 0, 5) // whole packet heading west, into router 0
	tr.step()
	r0 := tr.prod.routers[0]
	if r0.queued(portE*numVC+vcReq) != 1 || r0.queued(portS*numVC+vcReq) != 0 {
		t.Fatal("the two flits did not swap routers in the first tick")
	}
	if tr.prod.st.active[0]&1 == 0 {
		t.Fatal("router 0 drained, was retired, received a flit later in the sweep and is not active")
	}
	tr.step()
	if b := portE*numVC + vcReq; r0.queued(b) > 0 && r0.front(b).head() {
		t.Fatal("the late arrival never moved: router 0 was not ticked")
	}
}

// TestTrapImportActivatesImporterOnly: a flit crossing a cut link must put
// the empty router it lands in into the importing region's active set — by
// that region's own Exchange — and into no other domain's.
func TestTrapImportActivatesImporterOnly(t *testing.T) {
	tr := newTrap(t, 3, 7)
	tr.cycle = 10
	south := tr.packet(1, 7)
	tr.put(1, portL, south, 0, 5) // at router 1 (band 0), bound for 7 (band 2) via 4 (band 1)
	regions := tr.prod.regions
	domains := []*shardState{&tr.prod.st, &regions[0].st, &regions[1].st, &regions[2].st}
	// activeIn lists the domains (0 the base, 1+i region i) with node's bit set.
	activeIn := func(node int) (in []int) {
		for i, st := range domains {
			if st.active[0]>>node&1 != 0 {
				in = append(in, i)
			}
		}
		return in
	}
	tr.step()
	if got := activeIn(4); len(got) != 1 || got[0] != 2 {
		t.Fatalf("after the first import router 4 is active in domains %v, want its own region only", got)
	}
	tr.step()
	if got := activeIn(7); len(got) != 1 || got[0] != 3 {
		t.Fatalf("after the second import router 7 is active in domains %v, want its own region only", got)
	}
	for i := 0; i < 10; i++ {
		tr.step()
	}
	if got := tr.prod.RetiredPackets(); got != 1 {
		t.Fatalf("%d packets retired, want the one", got)
	}
	for _, node := range []int{1, 4, 7} {
		if got := activeIn(node); got != nil {
			t.Fatalf("router %d drained but is still active in domains %v", node, got)
		}
	}
}

// TestMeshEdgeHopPanics: the neighbour table has no entry where a mesh has
// no link; a flit sent that way must stop the simulation, not vanish.
func TestMeshEdgeHopPanics(t *testing.T) {
	n := New(Config{Width: 4, Height: 3}, func() uint64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("a hop over the mesh edge must panic")
		}
	}()
	n.routers[3].downstreamSpace(portE, vcReq, 1)
}

// FuzzFabricWorklist: bytes choose the topology, size, buffer depth,
// traffic shape, partition count and seed, and the rest gates which drivers
// may operate their ports in which cycles; production must match the
// exhaustive reference after every cycle with its invariants intact.
func FuzzFabricWorklist(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 2, 3, 1, 2, 9, 0xff, 0x0f, 0xf0, 0x55})
	f.Add([]byte{1, 3, 3, 0, 1, 3, 0xaa, 0xaa, 0x01, 0x80, 0xff})
	f.Add([]byte{0, 1, 2, 3, 2, 3, 7, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		spec := fabricSpec{
			topo:    Topology(data[0] % 2),
			w:       2 + int(data[1]%4),
			h:       2 + int(data[2]%4),
			buf:     1 + int(data[3]%4),
			traffic: int(data[4] % numTraffic),
			seed:    1 + uint64(data[5]),
		}
		parts := int(data[5]>>4) % 4
		lockstep(t, spec, parts, data[6:], 400)
	})
}
