package noc

import (
	"fmt"

	"noctg/internal/guard"
)

// This file implements the fabric side of the guard layer: progress/live
// probes, the conservation invariant scan, and the structured diagnostic
// dump. The scan is allocation-free after its first call (the per-domain
// tally scratch is cached on the Network) so the single-engine watchdog
// can run it on a cycle cadence; message formatting happens only when an
// invariant is actually broken.
//
// Validity: on an unpartitioned network every invariant holds at any
// inter-cycle point. On a partitioned network the scan must run at a
// quiescent segment boundary (workers joined, import rings drained) —
// exactly where the shard runner calls it.

// portNames names router ports in violation messages and diagnostic dumps
// (the lower-case form of PortName).
var portNames = [numPorts]string{portN: "n", portE: "e", portS: "s", portW: "w", portL: "local"}

// RetiredPackets returns the monotone count of packets retired to their
// pools since construction — the guard layer's progress signal. Unlike the
// registry stats it is never reset. Valid at quiescent points.
func (n *Network) RetiredPackets() uint64 {
	v := n.st.retired
	for _, rg := range n.regions {
		v += rg.st.retired
	}
	return v
}

// LivePackets returns the number of packets currently in flight across all
// pool domains. Valid at quiescent points.
func (n *Network) LivePackets() int {
	v := n.st.livePackets
	for _, rg := range n.regions {
		v += rg.st.livePackets
	}
	return v
}

// Retired returns the region's own monotone retirement count. Per-domain
// counts can lag or lead the packets the region issued (retirement happens
// where the packet dies), but their sum is the global count — which is all
// the shard runner's SPMD deadlock check sums them for.
func (rg *Region) Retired() uint64 { return rg.st.retired }

// Live returns the region pool's outstanding packet count. Per-domain
// values can go negative (a packet may retire in a different domain than
// it was issued from); only the sum across domains is meaningful.
func (rg *Region) Live() int { return rg.st.livePackets }

// domainTally accumulates one pool domain's observed flit and packet
// references during a scan.
type domainTally struct {
	flits int // flits resident in the domain's router FIFOs
	refs  int // live packet references (tail flits + NI-held packets)
	busy  int // NIs with work in hand (!idle())
}

// countTails returns the number of tail flits in input FIFO b. Each live
// packet is reachable through exactly one tail reference (its other flits
// ride the same packet pointer), which is what makes pool mass countable.
func (r *router) countTails(b int) int {
	t := 0
	for i := 0; i < r.queued(b); i++ {
		if r.flitAt(b, i).tail {
			t++
		}
	}
	return t
}

// scanTally returns the cached tally scratch sized for the current
// partition (index 0 is the base domain, 1+i region i).
func (n *Network) scanTally() []domainTally {
	want := 1 + len(n.regions)
	if cap(n.guardTally) < want {
		n.guardTally = make([]domainTally, want)
	}
	n.guardTally = n.guardTally[:want]
	for i := range n.guardTally {
		n.guardTally[i] = domainTally{}
	}
	return n.guardTally
}

// domainIndex maps a pool domain to its tally slot.
func (n *Network) domainIndex(st *shardState) int {
	if st == &n.st {
		return 0
	}
	return 1 + st.index
}

// CheckInvariants scans the conservation invariants and returns the first
// violation found, or nil. The returned violation's Cycle is left 0 for
// the caller to stamp (the scan has no cycle source of its own at
// quiescent points).
//
// Invariants checked:
//
//   - flit conservation: each domain's residentFlits equals its routers'
//     total FIFO occupancy;
//   - schedule state: everything the tick trusts in place of a scan agrees
//     with what a scan finds — each router's occupancy and held masks,
//     request cache, request counts and mask with its FIFOs and owner
//     table, its credit views with the FIFOs its links feed, each domain's
//     active-router set with exactly its occupied routers, each domain's
//     busy-NI count with its non-idle NIs;
//   - link counters: each cut link's per-VC pushed/popped/credit counters
//     are mutually consistent and account exactly for the FIFO they feed
//     (ring empty at boundaries);
//   - pool mass: live packet references (tail flits in FIFOs plus packets
//     held by NIs) equal the pools' outstanding count, and pooled packets
//     all belong to their pool.
func (n *Network) CheckInvariants() *guard.Violation {
	tally := n.scanTally()
	for _, r := range n.routers {
		d := &tally[n.domainIndex(r.st)]
		for b := 0; b < numFIFOs; b++ {
			d.flits += r.queued(b)
			d.refs += r.countTails(b)
		}
	}
	for _, m := range n.masters {
		d := &tally[n.domainIndex(m.st)]
		if m.pkt != nil {
			d.refs++
		}
		if !m.idle() {
			d.busy++
		}
	}
	for _, s := range n.slaves {
		d := &tally[n.domainIndex(s.st)]
		d.refs += len(s.queue) - s.qhead
		if s.current != nil {
			d.refs++
		}
		if s.out != nil {
			d.refs++
		}
		if !s.idle() {
			d.busy++
		}
	}

	// Flit conservation per domain.
	if n.st.residentFlits != tally[0].flits {
		return conservationViolation(-1, n.st.residentFlits, tally[0].flits)
	}
	for _, rg := range n.regions {
		if rg.st.residentFlits != tally[1+rg.index].flits {
			return conservationViolation(rg.index, rg.st.residentFlits, tally[1+rg.index].flits)
		}
	}

	// Schedule state.
	for _, r := range n.routers {
		if v := n.routerScheduleViolation(r); v != nil {
			return v
		}
	}
	if n.st.busyNIs != tally[0].busy {
		return busyViolation(-1, n.st.busyNIs, tally[0].busy)
	}
	for _, rg := range n.regions {
		if rg.st.busyNIs != tally[1+rg.index].busy {
			return busyViolation(rg.index, rg.st.busyNIs, tally[1+rg.index].busy)
		}
	}

	// Cut-link counters (partitioned networks only). At a boundary the
	// export ring is drained and the exporter's credit snapshot matches the
	// importer's pop count; the push/pop difference is exactly the fed
	// FIFO's occupancy.
	for _, rg := range n.regions {
		for _, cl := range rg.exports {
			if cl.ringHead != cl.ringTail {
				return &guard.Violation{Kind: guard.KindConservation, Shard: rg.index,
					Msg: fmt.Sprintf("cut link into node %d port %s: %d flits left in the export ring at a boundary",
						cl.dst.id, portNames[cl.inPort], cl.ringTail-cl.ringHead)}
			}
			for vc := 0; vc < numVC; vc++ {
				inQ := cl.dst.queued(cl.inPort*numVC + vc)
				switch {
				case cl.popped[vc] > cl.pushed[vc]:
					return linkViolation(cl, vc, "more flits popped than pushed")
				case cl.credit[vc] != cl.popped[vc]:
					return linkViolation(cl, vc, "credit snapshot out of date at a boundary")
				case cl.pushed[vc]-cl.popped[vc] != uint64(inQ):
					return linkViolation(cl, vc, fmt.Sprintf("counters imply %d in-flight flits but the fed FIFO holds %d",
						cl.pushed[vc]-cl.popped[vc], inQ))
				}
			}
		}
	}

	// Pool mass: global live references vs. global outstanding count, and
	// per-pool home integrity.
	refs, live := 0, 0
	for i := range tally {
		refs += tally[i].refs
	}
	live += n.st.livePackets
	for _, rg := range n.regions {
		live += rg.st.livePackets
	}
	if refs != live {
		return &guard.Violation{Kind: guard.KindPoolMass, Shard: -1,
			Msg: fmt.Sprintf("pools report %d packets in flight but %d live references exist "+
				"(leaked or double-recycled packets)", live, refs)}
	}
	if v := poolHomeViolation(&n.st, -1); v != nil {
		return v
	}
	for _, rg := range n.regions {
		if v := poolHomeViolation(&rg.st, rg.index); v != nil {
			return v
		}
	}
	return nil
}

func conservationViolation(shard, resident, observed int) *guard.Violation {
	return &guard.Violation{Kind: guard.KindConservation, Shard: shard,
		Msg: fmt.Sprintf("domain accounts %d resident flits but its router FIFOs hold %d "+
			"(flits created or destroyed in flight)", resident, observed)}
}

func busyViolation(shard, counted, observed int) *guard.Violation {
	return &guard.Violation{Kind: guard.KindConservation, Shard: shard,
		Msg: fmt.Sprintf("domain counts %d busy NIs but %d of its NIs hold work", counted, observed)}
}

// routerScheduleViolation checks one router's occupancy mask, held mask,
// request cache, request counts and mask, credit views and active-set
// membership against its FIFOs, its owner table and the FIFOs its links
// feed.
func (n *Network) routerScheduleViolation(r *router) *guard.Violation {
	shard := n.domainIndex(r.st) - 1
	bad := func(p, vc int, format string, args ...any) *guard.Violation {
		return &guard.Violation{Kind: guard.KindConservation, Shard: shard,
			Msg: fmt.Sprintf("node %d port %s vc %s: ", r.id, portNames[p], vcNames[vc]) + fmt.Sprintf(format, args...)}
	}
	var reqN [numFIFOs]int
	for p := 0; p < numPorts; p++ {
		for vc := 0; vc < numVC; vc++ {
			b := p*numVC + vc
			queued := r.queued(b)
			if occ := r.occ>>b&1 != 0; occ == (queued == 0) {
				return bad(p, vc, "occupancy bit %t but the input FIFO holds %d flits", occ, queued)
			}
			want := wantEmpty
			if queued > 0 {
				want = wantNone
				if fl := r.front(b); fl.head() {
					o := n.cfg.nextPort(int(r.id), fl.pkt.dst)
					want = o*numVC + r.outVC(p, vc, o)
					reqN[want]++
				}
			}
			switch w := int(r.want[b]); {
			case w == want:
			case queued == 0:
				return bad(p, vc, "request cache holds %d for an empty input FIFO", w)
			case want == wantNone:
				return bad(p, vc, "request cache holds channel %d but the front flit is not a head", w)
			default:
				return bad(p, vc, "request cache holds %d but the front head flit requests channel %d", w, want)
			}
			if held := r.held>>b&1 != 0; held != (r.alloc[p][vc].in >= 0) {
				return bad(p, vc, "held bit %t but the output channel's owner is input %d", held, r.alloc[p][vc].in)
			}
		}
	}
	for b, want := range reqN {
		if got := int(r.reqN[b]); got != want {
			return bad(b/numVC, b%numVC, "request count %d but %d front head flits request the channel", got, want)
		}
		if bit := r.reqs>>b&1 != 0; bit != (want > 0) {
			return bad(b/numVC, b%numVC, "request mask bit %t but %d front head flits request the channel", bit, want)
		}
	}
	// A link channel's credits are the free slots of the FIFO it feeds; a
	// missing mesh link has none.
	for k := 0; k < numLinks; k++ {
		dir, vc := k/numVC, k%numVC
		free := 0
		if nb := r.nb[dir]; nb != nil {
			free = int(r.depth) - nb.queued(opposite(dir)*numVC+vc)
		}
		if got := int(r.cred[k]); got != free {
			return bad(dir, vc, "credit view %d but the downstream FIFO has %d free slots", got, free)
		}
	}
	// The router is in its own domain's active set exactly while it holds
	// a flit, and never in another domain's.
	for i := 0; i <= len(n.regions); i++ {
		st := &n.st
		if i > 0 {
			st = &n.regions[i-1].st
		}
		want := st == r.st && r.occ != 0
		if got := st.active[r.id>>6]>>(r.id&63)&1 != 0; got != want {
			return &guard.Violation{Kind: guard.KindConservation, Shard: shard,
				Msg: fmt.Sprintf("node %d (occupancy mask %#x): active bit %t in domain %d, want %t",
					r.id, r.occ, got, i-1, want)}
		}
	}
	return nil
}

func linkViolation(cl *cutLink, vc int, what string) *guard.Violation {
	return &guard.Violation{Kind: guard.KindConservation, Shard: -1,
		Msg: fmt.Sprintf("cut link into node %d port %s vc %s: %s (pushed %d, popped %d, credit %d)",
			cl.dst.id, portNames[cl.inPort], vcNames[vc], what, cl.pushed[vc], cl.popped[vc], cl.credit[vc])}
}

func poolHomeViolation(st *shardState, shard int) *guard.Violation {
	for _, p := range st.pktPool {
		if p.home != st {
			return &guard.Violation{Kind: guard.KindPoolMass, Shard: shard,
				Msg: "a pooled packet belongs to a different pool domain"}
		}
	}
	return nil
}

// Diagnose captures the structured dump attached to violations: every
// non-empty router FIFO, every non-idle master, cut-link counters and
// pool accounting. It allocates freely — it runs once, after a violation.
// The shard runner appends per-shard window state on top.
func (n *Network) Diagnose(cycle uint64) *guard.Diagnostic {
	d := &guard.Diagnostic{
		Cycle:       cycle,
		LivePackets: n.LivePackets(),
	}
	d.ResidentFlits = n.st.residentFlits
	for _, rg := range n.regions {
		d.ResidentFlits += rg.st.residentFlits
	}
	for _, r := range n.routers {
		for p := 0; p < numPorts; p++ {
			for v := 0; v < numVC; v++ {
				b := p*numVC + v
				if r.queued(b) == 0 {
					continue
				}
				head := r.front(b)
				age := uint64(0)
				if cycle > head.arrived {
					age = cycle - head.arrived
				}
				d.Queues = append(d.Queues, guard.QueueDiag{
					Node: int(r.id), Port: portNames[p], VC: vcNames[v], Flits: r.queued(b),
					HeadSrc: head.pkt.src, HeadDst: head.pkt.dst, HeadAge: age,
				})
			}
		}
	}
	stateNames := map[masterNIState]string{niIdle: "idle", niInjecting: "injecting", niInjected: "injected"}
	for _, m := range n.masters {
		if m.idle() {
			continue
		}
		state := stateNames[m.state]
		if m.busyRead {
			state += "+awaiting-read"
		}
		d.Masters = append(d.Masters, guard.MasterDiag{Node: m.node, State: state, ReqStart: m.reqStart})
	}
	for _, rg := range n.regions {
		for _, cl := range rg.exports {
			for vc := 0; vc < numVC; vc++ {
				if cl.pushed[vc] == 0 && cl.popped[vc] == 0 {
					continue
				}
				d.Links = append(d.Links, guard.LinkDiag{
					Node: int(cl.dst.id), Port: portNames[cl.inPort], VC: vcNames[vc],
					Pushed: cl.pushed[vc], Popped: cl.popped[vc], Credit: cl.credit[vc],
					Ring: cl.ringTail - cl.ringHead,
				})
			}
		}
	}
	addPool := func(st *shardState, domain int) {
		returns := 0
		for _, ret := range st.returns {
			returns += len(ret)
		}
		d.Pools = append(d.Pools, guard.PoolDiag{
			Domain: domain, Live: st.livePackets, Pooled: len(st.pktPool), Returns: returns,
		})
	}
	addPool(&n.st, -1)
	for _, rg := range n.regions {
		addPool(&rg.st, rg.index)
	}
	return d
}
