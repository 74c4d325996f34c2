// Package noc models a ×pipes-style packet-switched Network-on-Chip: a 2-D
// mesh or torus of wormhole routers with dimension-ordered routing,
// round-robin switch allocation and separate virtual networks for the
// request and response message classes (protocol-deadlock freedom).
//
// On the torus every row and column closes into a ring (wrap-around links)
// and routing takes the shorter way around each dimension, ties broken
// toward east/south. Rings introduce cyclic channel dependencies that the
// mesh does not have, so each message class owns a second "dateline"
// virtual channel: a packet starts a dimension on the base VC and switches
// to the dateline VC when it crosses that dimension's wrap link, which cuts
// every ring cycle (the classical dateline scheme). Mesh networks never
// occupy the dateline VCs, so their behaviour is unchanged.
//
// It presents the same ocp.MasterPort / ocp.Slave contract as the AMBA bus,
// so IP cores and traffic generators move between interconnects unchanged —
// the property the paper's cross-interconnect validation experiment relies
// on. Its latency/contention profile is deliberately very different from the
// shared bus: per-hop pipelining, distance-dependent latency, distributed
// contention at router outputs.
//
// # Flow control
//
// The fabric has one flow-control rule, the same on a local link and on a
// link cut between shards (router.downstreamSpace): an output sends on a
// VC while its cycle-start credit view holds a credit. Each link channel
// counts the free slots of the FIFO it feeds; a send takes one, and a pop
// of that FIFO returns it for the next cycle — a local link sets the
// credits returned during the current cycle aside until the cycle ends, a
// cut link gets them back at the exporter's Exchange. The view is the
// downstream occupancy as of the start of the cycle, so the outcome of a
// cycle is a pure function of the state at its start: it does not depend
// on router tick order or on where the fabric is cut, which is what makes
// every partition of a fabric (Region) compute the unpartitioned fabric's
// flit movements.
//
// It also means a router holding no flit can change nothing, so a cycle
// costs what its resident flits cost: each pool domain ticks only its
// active routers, and a router probes only its candidate channels (see
// Network.tick). The summaries that make this cheap — occupancy and
// request masks, the request cache and counts, the credit views, the
// active sets — are checked, not trusted: CheckInvariants recomputes them
// from the FIFOs, and the exhaustive schedule survives as a test-only
// reference that production must match cycle for cycle.
package noc

import (
	"fmt"
	"math/bits"

	"noctg/internal/ocp"
	"noctg/internal/sim"
)

// Virtual channels: requests and responses travel in separate virtual
// networks so a blocked response can never deadlock behind a request. Each
// class also owns a dateline VC used only on torus wrap rings (see the
// package comment); on a mesh the dateline VCs stay empty forever, and the
// round-robin output arbiter skips empty VCs without disturbing the
// relative req/resp ordering.
const (
	vcReq    = 0
	vcResp   = 1
	vcReqDL  = 2
	vcRespDL = 3
	numVC    = 4
)

// datelineVC returns the dateline variant of a base-class VC.
func datelineVC(vc int) int {
	if vc == vcResp || vc == vcRespDL {
		return vcRespDL
	}
	return vcReqDL
}

// baseVC returns the message-class VC of any VC.
func baseVC(vc int) int {
	if vc == vcResp || vc == vcRespDL {
		return vcResp
	}
	return vcReq
}

// Router port directions.
const (
	portN = iota
	portE
	portS
	portW
	portL // local (network interface)
	numPorts
)

func opposite(dir int) int {
	if dir == portL {
		return portL
	}
	return (dir + 2) % portL // N<->S, E<->W
}

// Topology selects the link structure of the fabric.
type Topology int

const (
	// Mesh is the open 2-D grid: edge routers have no wrap links and
	// dimension-ordered routing always travels monotonically.
	Mesh Topology = iota
	// Torus closes every row and column into a ring with wrap-around
	// links; routing takes the shorter way around each dimension (ties
	// toward east/south) and the dateline VCs keep the rings
	// deadlock-free.
	Torus
)

func (t Topology) String() string {
	switch t {
	case Mesh:
		return "mesh"
	case Torus:
		return "torus"
	}
	return fmt.Sprintf("Topology(%d)", int(t))
}

// ParseTopology converts a "mesh"/"torus" flag or JSON value into a
// Topology. The empty string selects the mesh default.
func ParseTopology(s string) (Topology, error) {
	switch s {
	case "", "mesh":
		return Mesh, nil
	case "torus":
		return Torus, nil
	}
	return 0, fmt.Errorf("noc: unknown topology %q (want mesh or torus)", s)
}

// Bounds on a Config a run description may ask for: the largest accepted
// fabric, 64×64 routers at 64 flits per FIFO, builds in about 190 MB. New
// panics outside them.
const (
	MaxMeshDim     = 64
	MaxBufferFlits = 64
)

// Config holds the NoC parameters. Zero values take defaults.
type Config struct {
	// Width and Height give the grid dimensions (default 4×3).
	Width, Height int
	// Topology selects mesh (default) or torus link structure.
	Topology Topology
	// BufferFlits is the per-input, per-VC FIFO depth (default 4).
	BufferFlits int
	// RespCycles is the NI-side response delivery latency (default 1).
	RespCycles uint64
}

// WithDefaults returns the configuration with zero fields resolved to
// their defaults — the effective geometry a Network built from c will
// have, available to callers that must validate capacity up front.
func (c Config) WithDefaults() Config {
	if c.Width == 0 {
		c.Width = 4
	}
	if c.Height == 0 {
		c.Height = 3
	}
	if c.BufferFlits == 0 {
		c.BufferFlits = 4
	}
	if c.RespCycles == 0 {
		c.RespCycles = 1
	}
	return c
}

// packet is one request or response message. Packets are pooled per
// Network: a request packet is recycled once its slave NI has served it, a
// response packet once its master NI has copied the response out, so the
// steady-state transaction path performs no packet allocation. dataBuf is
// the packet-owned payload storage (write data on requests, read data on
// responses), reused across the packet's lives.
type packet struct {
	src, dst int
	isResp   bool
	// dstX, dstY locate the destination router (see Network.address).
	dstX, dstY uint8
	req        ocp.Request
	resp       ocp.Response
	length     int
	// hops counts the packet's router-to-router link traversals, copied
	// from its tail flit at ejection for the per-hop histogram.
	hops    int
	dataBuf []uint32
	// home is the pool domain the packet was allocated from. A packet can
	// retire in a different shard (a posted write's request retires at the
	// slave, with no response packet to carry the struct back), so
	// retirement routes foreign packets onto the home region's return list
	// instead of the local pool — otherwise the master region's pool
	// starves (allocating per write forever) while the slave region's pool
	// grows without bound.
	home *shardState
}

// flit is one link-level transfer unit, 24 bytes. It carries what a hop
// reads — its position in the packet, whether it is the tail, the
// destination's coordinates and its own link count — so routing and
// switching never dereference the packet; the packet pointer rides along
// for the NIs, and reassembly needs no sequence bookkeeping (wormhole
// allocation keeps a packet's flits contiguous per VC anyway). Build flits
// with packet.flit.
type flit struct {
	pkt     *packet
	arrived uint64 // cycle the flit entered its current buffer
	idx     int32
	// dstX, dstY locate the destination router; hops counts the links the
	// flit has crossed, the same for every flit of a packet.
	dstX, dstY, hops uint8
	tail             bool
}

func (f *flit) head() bool { return f.idx == 0 }

// address sets packet p's source and destination nodes.
func (n *Network) address(p *packet, src, dst int) {
	d := n.routers[dst]
	p.src, p.dst, p.dstX, p.dstY = src, dst, d.x, d.y
}

// flit builds flit idx of the addressed packet p, entering its first
// buffer at cycle arrived.
func (p *packet) flit(idx int, arrived uint64) flit {
	return flit{pkt: p, arrived: arrived, idx: int32(idx), dstX: p.dstX, dstY: p.dstY, tail: idx == p.length-1}
}

// hold records the input wormhole owning an (output, out-VC) channel.
// Allocation is keyed by the *outgoing* VC: on a torus a dimension turn can
// map the base and the dateline input VC of one class onto the same
// downstream VC, and only an exclusive output-VC owner keeps the flits of
// two such packets from interleaving in the downstream FIFO (wormhole
// contiguity). On a mesh the input VC always equals the output VC, so this
// is exactly the classic per-VC switch allocation.
type hold struct {
	in   int8 // input port, -1 when the channel is free
	invc int8 // input VC the owning packet's flits arrive on
}

// Values of router.want other than a channel.
const (
	wantEmpty = -1 // the input FIFO holds no flit
	wantNone  = -2 // the front flit is not a head: it requests nothing
)

// numFIFOs counts a router's input FIFOs (port, VC) and equally its output
// channels (output, out-VC); FIFO or channel b is port b/numVC, VC
// b%numVC. numLinks counts the channels of the four link outputs, which
// are the first ones.
const (
	numFIFOs = numPorts * numVC
	numLinks = portL * numVC
)

// router is one fabric node's switch, kept compact: what a hop reads sits
// in the first five cache lines of this record, in small types, and the
// flits themselves in one ring slab shared by the network — on a large
// mesh every line a router tick touches is a miss.
type router struct {
	// occ has bit b set while input FIFO b holds a flit, held bit b while
	// channel b has a wormhole owner, and reqs bit b while some FIFO's front
	// head flit requests channel b. want[b] is the channel FIFO b's front
	// flit requests (wantEmpty, wantNone), reqN[b] how many front flits
	// request channel b. pushIn and pop, the only places a front changes,
	// keep all of it current; CheckInvariants recomputes it from the FIFOs.
	occ, held, reqs uint32
	want            [numFIFOs]int8
	reqN            [numFIFOs]uint8
	x, y            uint8 // grid coordinates
	rrVC            [numPorts]uint8

	// Input FIFO b is the depth-slot ring ring[b*depth:], its front at
	// head[b], holding cnt[b] flits.
	head, cnt [numFIFOs]uint8
	ring      []flit
	depth     uint8

	alloc [numPorts][numVC]hold // wormhole owner per (output, out-VC)
	rrIn  [numPorts][numVC]uint8

	// cred[k] is link channel k's credits: the free slots of the downstream
	// FIFO it feeds. Sending takes one; a pop of that FIFO returns it —
	// at once on a local link, counted in fresh[k] while the cycle credAt
	// lasts, and at the next Exchange on a cut one. 0 forever where a mesh
	// has no link.
	cred   [numLinks]int8
	fresh  [numLinks]uint8
	credAt uint64

	// st is the pool/stats domain this router charges: the network's own in
	// the single-engine configuration, its region's after Partition.
	st *shardState
	n  *Network

	// Bit dir of wrap is set where output dir crosses a torus dateline, of
	// cutOut where it crosses a shard boundary (cuts.out[dir] is the link
	// and its export ring), and of cutIn where input port dir is fed from
	// another shard (cuts.in[dir], whose counters credit pops back to the
	// exporter). nb[dir] is the router one hop out of dir, nil where a mesh
	// has no link. All of it is fixed at construction and Partition.
	wrap, cutOut, cutIn uint8
	id                  int32
	nb                  [numPorts]*router
	local               localSink // attached NI, or nil
	cuts                *cuts
}

// cuts are a router's cut links, by port.
type cuts struct{ out, in [numPorts]*cutLink }

// localSink is the NI side of a router's local port.
type localSink interface {
	acceptFlit(fl *flit, cycle uint64)
}

// queued returns the number of flits in input FIFO b.
func (r *router) queued(b int) int { return int(r.cnt[b]) }

// front returns input FIFO b's front flit.
func (r *router) front(b int) *flit { return &r.ring[b*int(r.depth)+int(r.head[b])] }

// flitAt returns the i-th flit from input FIFO b's front.
func (r *router) flitAt(b, i int) *flit {
	if i += int(r.head[b]); i >= int(r.depth) {
		i -= int(r.depth)
	}
	return &r.ring[b*int(r.depth)+i]
}

// wraps reports whether this router's output dir is a torus wrap link (the
// ring's dateline). Like Network.neighbor and hasLink it is construction-
// time geometry: New files the answers in the nb and wrap tables.
func (r *router) wraps(dir int) bool {
	if r.n.cfg.Topology != Torus {
		return false
	}
	switch dir {
	case portE:
		return int(r.x) == r.n.cfg.Width-1
	case portW:
		return r.x == 0
	case portS:
		return int(r.y) == r.n.cfg.Height-1
	case portN:
		return r.y == 0
	}
	return false
}

// sameDim reports whether two router ports travel the same dimension (N
// and S are even, E and W odd).
func sameDim(a, b int) bool { return a != portL && b != portL && a%2 == b%2 }

// outVC returns the virtual channel a flit leaves on when it arrived on
// input port in / VC vc and departs through output o. On a mesh (and into
// local sinks) the VC never changes. On a torus the dateline scheme
// applies per dimension: crossing the wrap link moves the packet to its
// class's dateline VC, continuing straight keeps the current VC, and
// entering a dimension (injection or an XY turn) resets to the base VC.
func (r *router) outVC(in, vc, o int) int {
	if r.n.cfg.Topology != Torus || o == portL {
		return vc
	}
	if r.wrap>>o&1 != 0 {
		return datelineVC(vc)
	}
	if sameDim(in, o) {
		return vc
	}
	return baseVC(vc)
}

// route returns the output port of head flit fl (see dorPort).
func (r *router) route(fl *flit) int {
	c := &r.n.cfg
	return dorStep(c.Topology, c.Width, c.Height, int(fl.dstX)-int(r.x), int(fl.dstY)-int(r.y))
}

// atFront files fl, which has just reached the front of input FIFO b, in
// the request summary: a head flit asks for its route and out-VC
// (request), any other flit for nothing.
func (r *router) atFront(b int, fl *flit) {
	if fl.head() {
		r.request(b, fl)
	} else {
		r.want[b] = wantNone
	}
}

// request files head flit fl, the new front of input FIFO b, in the
// request summary: it asks for its route and out-VC, computed this once
// per router it crosses.
func (r *router) request(b int, fl *flit) {
	o := r.route(fl)
	w := o*numVC + r.outVC(b/numVC, b%numVC, o)
	r.want[b] = int8(w)
	r.reqN[w]++
	r.reqs |= 1 << w
}

// pushIn is the one way a flit enters a router — a copy of fl, from a
// neighbour's deliver, an NI's injection or a cut-link import; it returns
// the copy, whose hop count and arrival the caller may still stamp (the
// request summary reads neither). It keeps the occupancy mask, the request
// summary and the owning domain's active-router set in step with the
// FIFOs, so the pusher must be the goroutine ticking r's domain (every
// caller is: a local link stays inside its domain, and a cut link is
// imported by the destination's own Exchange).
func (r *router) pushIn(p, vc int, fl *flit) *flit {
	b := p*numVC + vc
	n := int(r.cnt[b])
	if n == int(r.depth) {
		panic("noc: fifo overflow")
	}
	slot := r.flitAt(b, n)
	*slot = *fl
	r.cnt[b]++
	if n == 0 {
		if r.occ == 0 {
			r.st.active[r.id>>6] |= 1 << (r.id & 63)
		}
		r.occ |= 1 << b
		r.atFront(b, slot)
	}
	return slot
}

// pop drops input FIFO b's front flit during cycle, files the flit behind
// it in the request summary and returns the slot's credit to whatever
// feeds the FIFO (an NI reads the occupancy itself).
func (r *router) pop(b int, cycle uint64) {
	r.front(b).pkt = nil // drop the packet reference for the pool's sake
	if r.head[b]++; r.head[b] == r.depth {
		r.head[b] = 0
	}
	if w := r.want[b]; w >= 0 {
		if r.reqN[w]--; r.reqN[w] == 0 {
			r.reqs &^= 1 << w
		}
	}
	if r.cnt[b]--; r.cnt[b] == 0 {
		r.occ &^= 1 << b
		r.want[b] = wantEmpty
	} else {
		r.atFront(b, r.front(b))
	}
	p, vc := b/numVC, b%numVC
	if r.cutIn>>p&1 != 0 {
		r.cuts.in[p].popped[vc]++
	} else if p != portL {
		r.nb[p].refund(opposite(p)*numVC+vc, cycle)
	}
}

// refund returns a credit to link channel k for a pop made during cycle.
func (r *router) refund(k int, cycle uint64) {
	if r.credAt != cycle {
		r.credAt, r.fresh = cycle, [numLinks]uint8{}
	}
	r.fresh[k]++
	r.cred[k]++
}

// downstreamSpace reports whether output dir of this router can accept a
// flit on vc this cycle: the package's one flow-control rule (see the
// package doc), a channel's credits less those returned during the cycle.
func (r *router) downstreamSpace(dir, vc int, cycle uint64) bool {
	if dir == portL {
		return r.local != nil // NIs always sink delivered flits
	}
	k := dir*numVC + vc
	free := r.cred[k]
	if r.credAt == cycle {
		free -= int8(r.fresh[k])
	}
	if free <= 0 && r.nb[dir] == nil {
		panic(fmt.Sprintf("noc: no neighbor %d of node %d", dir, r.id))
	}
	return free > 0
}

// deliver copies fl, the front flit of one of the router's input FIFOs,
// out of output dir, spending one of the link's credits; the caller pops
// it. The copy is stamped after it is made: rewriting fields of fl just
// before the copy reads them would stall the copy.
func (r *router) deliver(dir, vc int, fl *flit, cycle uint64) {
	if dir == portL {
		if fl.tail {
			fl.pkt.hops = int(fl.hops)
		}
		r.local.acceptFlit(fl, cycle)
		r.st.residentFlits--
		return
	}
	var out *flit
	if r.cutOut>>dir&1 != 0 {
		// Cross-shard hop: park the flit in the link's export ring. The
		// importing shard moves it into the destination FIFO at the window
		// boundary, stamped with the same arrival cycle a local push would
		// have used, so timing is identical to an uncut link.
		out = r.cuts.out[dir].push(vc, fl)
		r.st.residentFlits--
	} else {
		r.cred[dir*numVC+vc]--
		out = r.nb[dir].pushIn(opposite(dir), vc, fl)
	}
	out.hops++
	out.arrived = cycle
}

// allChannels masks a router's numFIFOs FIFO (or channel) bits, and
// classFIFOs[c] those of the input FIFOs of message class c (its base and
// dateline VC at every port). The masks below rely on VC numbering: class
// is the low bit, and a class's base VC sorts before its dateline VC.
const allChannels = 1<<numFIFOs - 1

var classFIFOs = func() (m [2]uint32) {
	for p := 0; p < numPorts; p++ {
		m[vcReq] |= (1<<vcReq | 1<<vcReqDL) << (p * numVC)
		m[vcResp] |= (1<<vcResp | 1<<vcRespDL) << (p * numVC)
	}
	return m
}()

// tick performs switch allocation and forwards at most one flit per output
// port (the physical link constraint), choosing among VCs round-robin. A
// probe of a channel allocates it if it is free, then forwards through its
// owner.
//
// Only candidate (output, out-VC) channels are probed: those with a
// wormhole owner plus those a front head flit requests. The set is a
// superset of the channels on which a probe could change any state — a
// channel with neither an owner nor a requesting head has nothing to
// allocate and nothing to forward — so skipping the rest leaves every
// round-robin pointer, allocation and flit movement exactly as a scan of
// all numFIFOs channels would. A forward can surface the next packet's
// head in the FIFO it popped, which may ask for a later output in this
// same tick, so the set is topped up after every forward.
func (r *router) tick(cycle uint64) {
	cand := r.held | r.reqs
	// Outputs in ascending order, each one's VCs from its round-robin
	// pointer; rest holds the candidates of the outputs still to visit.
	for rest := cand; rest != 0; {
		o := bits.TrailingZeros32(rest) / numVC
		// vcs has bit k set when VC rrVC[o]+k is a candidate.
		rr := uint(r.rrVC[o])
		vcs := cand >> (o * numVC) & (1<<numVC - 1)
		for vcs = (vcs>>rr | vcs<<(numVC-rr)) & (1<<numVC - 1); vcs != 0; vcs &= vcs - 1 {
			vc := (bits.TrailingZeros32(vcs) + int(rr)) & (numVC - 1)
			if r.alloc[o][vc].in < 0 {
				r.allocate(o, vc, cycle)
			}
			if r.forward(o, vc, cycle) {
				cand |= r.reqs
				break
			}
		}
		rest = cand &^ (1<<((o+1)*numVC) - 1)
	}
}

// allocate grants the free channel (o, ovc) to an input whose head flit
// requests o and would leave on ovc: input ports round-robin from rrIn,
// base VC before dateline VC within a port (torus turns reset the dateline
// bit, wrap links set it, so either can feed an out-VC); the owner holds
// the channel until the packet's tail passes. Rotating the occupied FIFOs of
// ovc's class down by the pointer turns that order into ascending bit
// order.
func (r *router) allocate(o, ovc int, cycle uint64) {
	ch := o*numVC + ovc
	rot := uint(r.rrIn[o][ovc]) * numVC
	m := r.occ & classFIFOs[ovc&1]
	for m = (m>>rot | m<<(numFIFOs-rot)) & allChannels; m != 0; m &= m - 1 {
		b := bits.TrailingZeros32(m) + int(rot)
		if b >= numFIFOs {
			b -= numFIFOs
		}
		if int(r.want[b]) == ch && r.front(b).arrived < cycle {
			r.grant(o, ovc, b/numVC, b%numVC)
			return
		}
	}
}

// grant makes input FIFO (in, invc) the wormhole owner of channel (o, ovc)
// and moves the channel's input round-robin pointer past it.
func (r *router) grant(o, ovc, in, invc int) {
	r.alloc[o][ovc] = hold{in: int8(in), invc: int8(invc)}
	r.held |= 1 << (o*numVC + ovc)
	r.rrIn[o][ovc] = uint8((in + 1) % numPorts)
}

// forward moves the front flit of channel (o, ovc)'s owner, if it has one
// that may move, one hop on; a tail flit frees the channel behind it.
func (r *router) forward(o, ovc int, cycle uint64) bool {
	a := r.alloc[o][ovc]
	if a.in < 0 {
		return false
	}
	b := int(a.in)*numVC + int(a.invc)
	if r.cnt[b] == 0 {
		return false
	}
	fl := r.front(b)
	if fl.arrived >= cycle || !r.downstreamSpace(o, ovc, cycle) { // one hop per cycle
		return false
	}
	if fl.tail {
		r.alloc[o][ovc] = hold{in: -1}
		r.held &^= 1 << (o*numVC + ovc)
	}
	r.rrVC[o] = uint8(ovc+1) & (numVC - 1)
	r.st.flitsRouted++
	r.st.flitsVC[ovc].Inc()
	r.deliver(o, ovc, fl, cycle)
	r.pop(b, cycle)
	return true
}

// shardState is the pool/stats domain of one execution shard. The
// unsharded network owns exactly one (Network.st); Partition gives every
// Region its own, so each shard's hot path touches only shard-local
// memory and the canonical metrics are recovered by a deterministic fold
// (foldRegionStats) at registry sync points.
type shardState struct {
	// pktPool recycles packet structs (and their payload buffers); each
	// shard's engine is single-goroutine, so no locking is needed.
	// livePackets counts packets currently out of the pool — the guard
	// layer's pool-mass account. (A packet can retire in a different shard
	// than it was issued from, so a single domain's count can go negative
	// and only the sum means anything; quiescence is judged per domain from
	// residentFlits and busyNIs instead, see quiet.)
	pktPool     []*packet
	livePackets int
	// index is the owning region's position in the partition (0 for the
	// unsharded base state); returns[i] collects packets that retired here
	// but were allocated by region i, appended during this shard's compute
	// step and drained into region i's pool during region i's Exchange.
	// The two phases are globally barrier-separated, so each slot has one
	// writer (the retiring shard, computing) and one reader (the home
	// shard, exchanging) and never both at once. Nil when unsharded: the
	// single pool makes every retirement local.
	index   int
	returns [][]*packet
	// residentFlits counts flits currently held in this domain's router
	// FIFOs: incremented on NI injection and cross-shard import,
	// decremented on local delivery and cross-shard export. busyNIs counts
	// the domain's NIs with work in hand (!idle(), kept by noteBusy), so
	// quiescence is two compares instead of a scan of every queue and NI.
	residentFlits int
	busyNIs       int
	// active has bit id set for exactly the domain's routers that hold a
	// flit: router.pushIn adds a router, tick retires it once it drains.
	// Only the goroutine ticking this domain ever writes it — its own
	// compute step for local pushes, its own Exchange for imports.
	active []uint64
	// retired counts packets ever recycled through putPacket. Unlike the
	// registry stats below it is never reset: the guard layer's deadlock
	// watchdog needs a monotone progress signal that survives epoch
	// boundaries (see guard.go).
	retired uint64

	// Stats — sim.Counter/sim.Histogram handles registered with the
	// platform's stats registry (RegisterStats), so phased measurement can
	// reset and snapshot them at epoch boundaries. flitsVC breaks link
	// traversals down by virtual channel (message class + dateline), and
	// hops records the per-packet hop count at retirement — breakdowns the
	// old scalar counters could not express.
	flitsRouted  sim.Counter
	flitsVC      [numVC]sim.Counter
	hops         *sim.Histogram
	decodeErrors sim.Counter
	slaveErrors  sim.Counter
}

// newHopsHistogram keeps base and per-region hop histograms on identical
// bucket bounds so the region copies can merge into the canonical one.
func newHopsHistogram() *sim.Histogram {
	return sim.NewHistogram(1, 2, 3, 4, 6, 8, 12, 16)
}

// Network is the mesh fabric. It implements sim.Device and must be ticked
// after all masters each cycle.
type Network struct {
	cfg     Config
	now     func() uint64
	routers []*router
	masters []*masterNI
	slaves  []*slaveNI

	// st is the network's own pool/stats domain — the only one until
	// Partition carves the fabric into regions.
	st shardState

	// regions are the spatial shards after Partition (nil otherwise);
	// regionOfRow maps a mesh row to its region index.
	regions     []*Region
	regionOfRow []int

	// waker is the engine's wake handle (sim.WakeSink); nil when the
	// network is driven outside an engine.
	waker sim.Waker

	// guardTally is the conservation scan's cached per-domain scratch so
	// repeated scans allocate nothing; see guard.go.
	guardTally []domainTally
}

// New builds a Width×Height mesh or torus. now supplies the current engine
// cycle.
func New(cfg Config, now func() uint64) *Network {
	if now == nil {
		panic("noc: New requires a cycle source")
	}
	n := &Network{cfg: cfg.WithDefaults(), now: now}
	w, h, depth := n.cfg.Width, n.cfg.Height, n.cfg.BufferFlits
	if w < 1 || h < 1 || w > MaxMeshDim || h > MaxMeshDim || depth < 1 || depth > MaxBufferFlits {
		panic(fmt.Sprintf("noc: %dx%d fabric with %d-flit buffers is outside the bounds", w, h, depth))
	}
	n.st.hops = newHopsHistogram()
	// Routers, their pointers and every input ring come from three slabs.
	slab := make([]router, w*h)
	ring := make([]flit, len(slab)*numFIFOs*depth)
	n.st.active = activeSet(len(slab))
	n.routers = make([]*router, len(slab))
	for id := range slab {
		r := &slab[id]
		r.n, r.st, r.id, r.x, r.y = n, &n.st, int32(id), uint8(id%w), uint8(id/w)
		r.depth = uint8(depth)
		r.ring = ring[id*numFIFOs*depth : (id+1)*numFIFOs*depth : (id+1)*numFIFOs*depth]
		for b := range r.want {
			r.want[b] = wantEmpty
			r.alloc[b/numVC][b%numVC] = hold{in: -1}
		}
		n.routers[id] = r
	}
	for id, r := range n.routers {
		for dir := portN; dir < portL; dir++ {
			if n.hasLink(r, dir) {
				r.nb[dir] = n.neighbor(id, dir)
				if r.wraps(dir) {
					r.wrap |= 1 << dir
				}
				for vc := 0; vc < numVC; vc++ {
					r.cred[dir*numVC+vc] = int8(depth)
				}
			}
		}
	}
	return n
}

// packetBatch is the pool refill quantum and packetBufWords the payload
// capacity stocked per packet. A dry pool restocks a whole slab at once:
// the in-flight packet count's running maximum creeps (slowly, forever —
// queue-depth tails are unbounded), and per-packet refills would turn
// every +1 of that maximum into an allocation. Slab refills amortise the
// creep to one allocation per packetBatch, so steady state actually
// reaches an allocation-free plateau. Payload buffers beyond
// packetBufWords grow per packet on first use and then stick.
const (
	packetBatch    = 64
	packetBufWords = 8
)

// getPacket takes a packet from the pool, restocking it by the slab when
// dry. Pool invariant: st.pktPool holds only packets with home == st
// (foreign retirements go onto the return lists and drain into their home
// pool), so a pooled packet's home never needs refreshing.
func (st *shardState) getPacket() *packet {
	st.livePackets++
	if len(st.pktPool) == 0 {
		slab := make([]packet, packetBatch)
		words := make([]uint32, packetBatch*packetBufWords)
		for i := range slab {
			slab[i].home = st
			slab[i].dataBuf = words[i*packetBufWords : i*packetBufWords : (i+1)*packetBufWords]
			st.pktPool = append(st.pktPool, &slab[i])
		}
	}
	last := len(st.pktPool) - 1
	p := st.pktPool[last]
	st.pktPool = st.pktPool[:last]
	return p
}

// putPacket retires a dead packet, keeping its payload buffer. Retirement
// is where the packet's hop count is final, so the per-hop breakdown is
// observed here (by the retiring shard's histogram; the fold makes the
// merged view identical for every partition). A packet that retires away
// from its home region parks on the local return list until the home
// region's next Exchange.
func (st *shardState) putPacket(p *packet) {
	st.livePackets--
	st.retired++
	st.hops.Observe(uint64(p.hops))
	buf := p.dataBuf
	home := p.home
	*p = packet{dataBuf: buf[:0], home: home}
	if home != st {
		st.returns[home.index] = append(st.returns[home.index], p)
		return
	}
	st.pktPool = append(st.pktPool, p)
}

// Nodes returns the number of fabric nodes.
func (n *Network) Nodes() int { return len(n.routers) }

// FlitsRouted returns the total number of link traversals. With regions it
// folds the shard-local tallies on the fly, so the value is identical for
// every shard count at any quiescent read point.
func (n *Network) FlitsRouted() uint64 {
	v := n.st.flitsRouted.Value()
	for _, rg := range n.regions {
		v += rg.st.flitsRouted.Value()
	}
	return v
}

// vcNames labels the virtual channels in flit-counter metric names.
var vcNames = [numVC]string{vcReq: "req", vcResp: "resp", vcReqDL: "req_dl", vcRespDL: "resp_dl"}

// RegisterStats implements sim.StatsSource: total and per-VC flit counts,
// the per-packet hop histogram, decode/slave error counts and every
// master NI's latency histogram join the registry. Call after all NIs are
// attached (registration captures metric addresses).
func (n *Network) RegisterStats(r *sim.Registry) {
	r.RegisterCounter("flits_routed", &n.st.flitsRouted)
	for vc := range n.st.flitsVC {
		r.RegisterCounter("flits/"+vcNames[vc], &n.st.flitsVC[vc])
	}
	r.RegisterHistogram("hops", n.st.hops)
	r.RegisterCounter("decode_errors", &n.st.decodeErrors)
	r.RegisterCounter("slave_errors", &n.st.slaveErrors)
	for _, m := range n.masters {
		r.RegisterHistogram(fmt.Sprintf("ni%d/latency", m.node), m.lat)
	}
	if n.regions != nil {
		// Only the canonical metrics above are registered, whatever the
		// shard count; the per-region tallies fold into them at every
		// registry sync point (always before Snapshot/Reset), so epoch
		// counters and histograms serialise identically for 1..N shards.
		r.OnSync(func(uint64) { n.foldRegionStats() })
	}
}

// foldRegionStats drains every region's shard-local counters and
// histograms into the canonical network metrics. Regions are visited in
// index order and counter addition commutes, so the fold is deterministic.
// Callers must be quiescent (no shard workers running).
func (n *Network) foldRegionStats() {
	for _, rg := range n.regions {
		n.st.flitsRouted.Add(rg.st.flitsRouted.Value())
		rg.st.flitsRouted.Reset()
		for vc := range rg.st.flitsVC {
			n.st.flitsVC[vc].Add(rg.st.flitsVC[vc].Value())
			rg.st.flitsVC[vc].Reset()
		}
		n.st.hops.Merge(rg.st.hops)
		rg.st.hops.Reset()
		n.st.decodeErrors.Add(rg.st.decodeErrors.Value())
		rg.st.decodeErrors.Reset()
		n.st.slaveErrors.Add(rg.st.slaveErrors.Value())
		rg.st.slaveErrors.Reset()
	}
}

var _ sim.StatsSource = (*Network)(nil)

func (n *Network) neighbor(id, dir int) *router {
	x, y := id%n.cfg.Width, id/n.cfg.Width
	switch dir {
	case portN:
		y--
	case portS:
		y++
	case portE:
		x++
	case portW:
		x--
	}
	if n.cfg.Topology == Torus {
		x = (x + n.cfg.Width) % n.cfg.Width
		y = (y + n.cfg.Height) % n.cfg.Height
	}
	if x < 0 || x >= n.cfg.Width || y < 0 || y >= n.cfg.Height {
		panic(fmt.Sprintf("noc: no neighbor %d of node %d", dir, id))
	}
	return n.routers[y*n.cfg.Width+x]
}

// AttachMaster creates a master network interface at the given node and
// returns its OCP port. Each node holds at most one NI.
func (n *Network) AttachMaster(node int) ocp.MasterPort {
	n.checkNode(node)
	ni := &masterNI{net: n, node: node, r: n.routers[node], st: &n.st, now: n.now, lat: sim.NewLatencyHistogram(),
		respData: make([]uint32, 0, packetBufWords)}
	n.routers[node].local = ni
	n.masters = append(n.masters, ni)
	return ni
}

// AttachSlave places slave at node, serving the address range rng.
func (n *Network) AttachSlave(node int, slave ocp.Slave, rng ocp.AddrRange) error {
	n.checkNode(node)
	for _, s := range n.slaves {
		if s.rng.Overlaps(rng) {
			return fmt.Errorf("noc: range %v overlaps existing %v", rng, s.rng)
		}
	}
	// The queue starts with a generous capacity so the slice-doubling
	// growth toward a workload's high-water depth is front-loaded into
	// construction instead of trickling through the measured run.
	ni := &slaveNI{net: n, node: node, r: n.routers[node], st: &n.st, slave: slave, rng: rng,
		queue: make([]*packet, 0, 64)}
	n.routers[node].local = ni
	n.slaves = append(n.slaves, ni)
	return nil
}

func (n *Network) checkNode(node int) {
	if node < 0 || node >= len(n.routers) {
		panic(fmt.Sprintf("noc: node %d outside mesh of %d", node, len(n.routers)))
	}
	if n.routers[node].local != nil {
		panic(fmt.Sprintf("noc: node %d already has a network interface", node))
	}
}

func (n *Network) decode(addr uint32) *slaveNI {
	for _, s := range n.slaves {
		if s.rng.Contains(addr) {
			return s
		}
	}
	return nil
}

// Tick implements sim.Device: NIs inject/serve, then routers switch.
func (n *Network) Tick(cycle uint64) {
	n.tick(&n.st, n.masters, n.slaves, cycle)
}

// tick runs one cycle of one pool domain — the whole network, or a
// Region's band of it: the domain's master NIs inject, its slave NIs
// serve, then its routers switch. Only routers in the active set tick. A
// router holding no flit can change no state in its tick, and because
// downstreamSpace reads a cycle-start credit view no router's outcome
// depends on whether a neighbour has ticked yet, so leaving the empty ones
// out changes nothing; the set is walked in ascending router id, the order a
// loop over every router uses, so the shared counters see the same
// sequence too. A router that receives its first flit while the walk is
// under way joins the set at once (it ticks this cycle only if the walk
// has not passed its word yet, and that tick finds nothing old enough to
// move) and one that drains is retired after its tick.
func (n *Network) tick(st *shardState, masters []*masterNI, slaves []*slaveNI, cycle uint64) {
	for _, m := range masters {
		if m.state == niInjecting {
			m.inject(cycle)
		}
	}
	for _, s := range slaves {
		if s.busy {
			s.tick(cycle)
		}
	}
	for i, w := range st.active {
		for ; w != 0; w &= w - 1 {
			b := bits.TrailingZeros64(w)
			r := n.routers[i<<6|b]
			r.tick(cycle)
			if r.occ == 0 {
				st.active[i] &^= 1 << b
			}
		}
	}
}

// quiet reports whether the domain holds no flits and all its NIs are
// idle: nothing in it can act until a master injects or a neighbour shard
// exports a flit into it.
func (st *shardState) quiet() bool { return st.residentFlits == 0 && st.busyNIs == 0 }

// Idle reports whether no flits, pending NI work or undelivered responses
// remain anywhere in the fabric.
func (n *Network) Idle() bool {
	for _, rg := range n.regions {
		if !rg.st.quiet() {
			return false
		}
	}
	return n.st.quiet()
}

// NextWake implements sim.Sleeper. The NoC has no timed state of its own —
// flits move whenever they can — so it is either active this cycle or
// quiescent until some master injects again; the injection (a TryRequest on
// a master NI) fires the wake hook, so quiescence is a safe promise even
// under the event kernel, where a sleeping network is not ticked at all
// while other devices run.
func (n *Network) NextWake(now uint64) uint64 {
	if n.st.quiet() {
		return sim.WakeNever
	}
	return now
}

// SetWaker implements sim.WakeSink: the engine hands the network its wake
// handle at registration, and the master NIs fire it when a TryRequest
// arrives while the network may be sleeping.
func (n *Network) SetWaker(w sim.Waker) { n.waker = w }

// wakeUp fires the engine wake hook (no-op outside an engine).
func (n *Network) wakeUp() {
	if n.waker != nil {
		n.waker.Wake()
	}
}

// TickWake implements sim.TickSleeper (Tick then NextWake in one dispatch).
func (n *Network) TickWake(cycle uint64) uint64 {
	n.Tick(cycle)
	return n.NextWake(cycle + 1)
}

var _ sim.Device = (*Network)(nil)
var _ sim.Sleeper = (*Network)(nil)
var _ sim.WakeSink = (*Network)(nil)
var _ sim.TickSleeper = (*Network)(nil)
