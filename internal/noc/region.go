package noc

import (
	"fmt"

	"noctg/internal/sim"
)

// This file implements spatial sharding of the fabric: Partition cuts the
// mesh into contiguous row bands, each of which becomes a Region — a
// sim.Device that ticks only its own NIs and routers and can therefore run
// on its own engine/goroutine. The only coupling between regions is flits
// on the cut links, exchanged through preallocated ring buffers strictly
// between execution windows, plus credit counters giving the exporter a
// conservative view of downstream buffer space.
//
// Determinism is the design constraint. The fabric's flow control reads a
// cycle-start credit view (see downstreamSpace): the outcome of a cycle is
// a pure function of the state at its start, independent of router tick
// order, so cutting a link (which delays visibility of a pushed flit until
// the window boundary, and of a pop until the exporter's Exchange returns
// its credit) produces exactly the flit movements of the uncut fabric. The
// unpartitioned network and every partition of it compute byte-identical
// results.

// cutRingCap bounds a cut link's export ring. A physical link carries at
// most one flit per cycle and rings drain at every window boundary (at
// most one cycle apart while traffic is moving), so 8 slots is generous;
// the push panics on overflow rather than silently dropping.
const cutRingCap = 8

// cutFlit is one boundary-crossing flit with its virtual channel.
type cutFlit struct {
	fl flit
	vc int
}

// cutLink is one directed inter-region link. The exporting shard pushes
// into the ring during its compute step; the importing shard drains it in
// its exchange step after the window barrier, so the two sides never touch
// the ring concurrently and no locking is needed. pushed/popped/credit
// account for the link's flow control: pushed is exporter-owned, popped is
// importer-owned (bumped when the fed FIFO pops), and credit is the
// exporter's boundary snapshot of popped — each Exchange returns the pops
// since the last one to the exporting router's credit view, which then
// holds the downstream FIFO's occupancy as of the start of the window, the
// view an uncut link's refunds give at the start of a cycle.
type cutLink struct {
	src     *router // exporting router
	outPort int     // src output port the link leaves
	dst     *router // importing router
	inPort  int     // dst input port the link feeds

	ring     [cutRingCap]cutFlit
	ringTail int // exporter-owned
	_        [8]uint64
	ringHead int // importer-owned

	pushed [numVC]uint64 // exporter-owned cumulative flits pushed
	credit [numVC]uint64 // exporter-owned snapshot of popped
	_      [8]uint64
	popped [numVC]uint64 // importer-owned cumulative flits popped
}

// push parks a copy of a boundary-crossing flit in the export ring,
// spending one of the exporter's credits, and returns the copy.
func (cl *cutLink) push(vc int, fl *flit) *flit {
	if cl.ringTail-cl.ringHead >= cutRingCap {
		panic("noc: cut-link export ring overflow")
	}
	slot := &cl.ring[cl.ringTail%cutRingCap]
	slot.fl, slot.vc = *fl, vc
	cl.ringTail++
	cl.pushed[vc]++
	cl.src.cred[cl.outPort*numVC+vc]--
	return &slot.fl
}

// Region is one spatial shard: the routers of a contiguous row band plus
// the NIs attached to them. It implements sim.Device/sim.Sleeper (and the
// fused/wake variants) exactly like the whole Network does, so a shard
// engine drives it with any kernel.
type Region struct {
	net    *Network
	index  int
	y0, y1 int // row band [y0, y1)

	routers []*router
	masters []*masterNI
	slaves  []*slaveNI

	st shardState

	// imports feed this region's routers from other shards; exports leave
	// it. Both lists are in deterministic construction order (router id,
	// then port), which fixes the boundary merge order for any schedule.
	imports []*cutLink
	exports []*cutLink

	waker sim.Waker
}

// Partition cuts the fabric into k contiguous row bands (clamped to
// [1, Height]). It must be called once, after all NIs are attached and
// before the first tick. It changes how the fabric executes, never what it
// computes: k == 1 is the unpartitioned network driven through a Region.
func (n *Network) Partition(k int) []*Region {
	if n.regions != nil {
		panic("noc: network already partitioned")
	}
	if n.st.livePackets != 0 || !n.st.quiet() {
		panic("noc: Partition on a network with traffic in flight")
	}
	if k < 1 {
		k = 1
	}
	if k > n.cfg.Height {
		k = n.cfg.Height
	}
	n.regionOfRow = make([]int, n.cfg.Height)
	regions := make([]*Region, k)
	for s := 0; s < k; s++ {
		rg := &Region{net: n, index: s, y0: s * n.cfg.Height / k, y1: (s + 1) * n.cfg.Height / k}
		rg.st.hops = newHopsHistogram()
		rg.st.index = s
		rg.st.returns = make([][]*packet, k)
		rg.st.active = activeSet(len(n.routers))
		for y := rg.y0; y < rg.y1; y++ {
			n.regionOfRow[y] = s
		}
		regions[s] = rg
	}
	for _, r := range n.routers {
		rg := regions[n.regionOfRow[r.y]]
		r.st = &rg.st
		rg.routers = append(rg.routers, r)
	}
	// NIs keep their attach order within each region (the same relative
	// order Network.Tick uses), and their packets charge the region pool.
	for _, m := range n.masters {
		rg := regions[n.regionOfRow[m.node/n.cfg.Width]]
		m.st, m.rg = &rg.st, rg
		rg.masters = append(rg.masters, m)
	}
	for _, s := range n.slaves {
		rg := regions[n.regionOfRow[s.node/n.cfg.Width]]
		s.st = &rg.st
		rg.slaves = append(rg.slaves, s)
	}
	// Cut every link whose endpoints land in different regions. Iteration
	// order (router id, then port) fixes the import/export list order.
	for _, r := range n.routers {
		src := regions[n.regionOfRow[r.y]]
		for dir := portN; dir < portL; dir++ {
			if !n.hasLink(r, dir) {
				continue
			}
			nb := n.neighbor(int(r.id), dir)
			dst := regions[n.regionOfRow[nb.y]]
			if dst == src {
				continue
			}
			cl := &cutLink{src: r, outPort: dir, dst: nb, inPort: opposite(dir)}
			r.cutLinks().out[dir], r.cutOut = cl, r.cutOut|1<<dir
			nb.cutLinks().in[cl.inPort], nb.cutIn = cl, nb.cutIn|1<<cl.inPort
			src.exports = append(src.exports, cl)
			dst.imports = append(dst.imports, cl)
		}
	}
	n.regions = regions
	return regions
}

// cutLinks returns the router's cut-link table, made on first use.
func (r *router) cutLinks() *cuts {
	if r.cuts == nil {
		r.cuts = new(cuts)
	}
	return r.cuts
}

// activeSet returns an empty active-router set for a fabric of the given
// size, a cache line clear of any other allocation on either side: shards
// write their sets every cycle, side by side.
func activeSet(routers int) []uint64 {
	const pad = 8
	words := (routers + 63) / 64
	return make([]uint64, pad+words+pad)[pad : pad+words]
}

// hasLink reports whether router r has a physical link out of dir: always
// on a torus (wrap links close every ring), only inside the grid on a mesh.
func (n *Network) hasLink(r *router, dir int) bool {
	if n.cfg.Topology == Torus {
		return true
	}
	switch dir {
	case portN:
		return r.y > 0
	case portS:
		return int(r.y) < n.cfg.Height-1
	case portE:
		return int(r.x) < n.cfg.Width-1
	case portW:
		return r.x > 0
	}
	return false
}

// RegionOf returns the region index owning a fabric node.
func (n *Network) RegionOf(node int) int {
	return n.regionOfRow[node/n.cfg.Width]
}

// Index returns the region's position in the partition.
func (rg *Region) Index() int { return rg.index }

// Name implements sim.Named for engine diagnostics.
func (rg *Region) Name() string { return fmt.Sprintf("noc/shard%d", rg.index) }

// BindCycleSource points the region's master NIs at their shard engine's
// cycle counter; NIs consult it inside TryRequest/TakeResponse, which run
// during master ticks on the shard's own engine.
func (rg *Region) BindCycleSource(now func() uint64) {
	for _, m := range rg.masters {
		m.now = now
	}
}

// Tick implements sim.Device: Network.Tick's cycle (Network.tick) over the
// region's own NIs and active routers.
func (rg *Region) Tick(cycle uint64) {
	rg.net.tick(&rg.st, rg.masters, rg.slaves, cycle)
}

// Idle reports whether the region holds no flits and all its NIs are
// quiescent. Valid only at window boundaries after Exchange, when the
// import rings are empty.
func (rg *Region) Idle() bool { return rg.st.quiet() }

// NextWake implements sim.Sleeper: like the whole network, a region has no
// timed state — it is active while it holds work and quiescent until a
// master injects (TryRequest fires the wake hook) or a neighbour shard
// imports flits (the shard runner wakes it after Exchange).
func (rg *Region) NextWake(now uint64) uint64 {
	if rg.Idle() {
		return sim.WakeNever
	}
	return now
}

// TickWake implements sim.TickSleeper (Tick then NextWake in one dispatch).
func (rg *Region) TickWake(cycle uint64) uint64 {
	rg.Tick(cycle)
	return rg.NextWake(cycle + 1)
}

// SetWaker implements sim.WakeSink.
func (rg *Region) SetWaker(w sim.Waker) { rg.waker = w }

// Wake puts the region back into its engine's tick set (no-op outside an
// engine).
func (rg *Region) Wake() {
	if rg.waker != nil {
		rg.waker.Wake()
	}
}

// Exchange runs the region's import side of a window boundary: drain every
// import ring into the destination FIFOs (per-link FIFO order; links in
// fixed construction order) and return to the region's export links the
// credits of the pops behind them. It must run strictly between windows —
// after the barrier ending the exporters' compute step and before the
// barrier starting the next one. Returns the number of imported flits; the caller
// wakes the region when it is non-zero.
func (rg *Region) Exchange() int {
	imported := 0
	for _, cl := range rg.imports {
		for cl.ringHead != cl.ringTail {
			slot := &cl.ring[cl.ringHead%cutRingCap]
			cl.dst.pushIn(cl.inPort, slot.vc, &slot.fl)
			slot.fl.pkt = nil // drop the packet reference for the pool's sake
			cl.ringHead++
			imported++
		}
	}
	rg.st.residentFlits += imported
	for _, cl := range rg.exports {
		for vc := 0; vc < numVC; vc++ {
			if d := cl.popped[vc] - cl.credit[vc]; d != 0 {
				cl.src.cred[cl.outPort*numVC+vc] += int8(d)
				cl.credit[vc] = cl.popped[vc]
			}
		}
	}
	// Reclaim packets that retired in other regions (a posted write's
	// request struct stays at the slave): each peer parked them on its
	// return list during its compute step; only this region reads slot
	// [rg.index], so the concurrent peer Exchanges never touch the same
	// slice.
	for _, peer := range rg.net.regions {
		if peer == rg {
			continue
		}
		if ret := peer.st.returns[rg.index]; len(ret) > 0 {
			rg.st.pktPool = append(rg.st.pktPool, ret...)
			peer.st.returns[rg.index] = ret[:0]
		}
	}
	return imported
}

var _ sim.Device = (*Region)(nil)
var _ sim.Sleeper = (*Region)(nil)
var _ sim.WakeSink = (*Region)(nil)
var _ sim.TickSleeper = (*Region)(nil)
var _ sim.Named = (*Region)(nil)
