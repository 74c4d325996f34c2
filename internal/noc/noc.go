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
	switch dir {
	case portN:
		return portS
	case portS:
		return portN
	case portE:
		return portW
	case portW:
		return portE
	}
	return portL
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
// fabric, 64×64 routers at 64 flits per FIFO, builds in about 190 MB.
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
	req      ocp.Request
	resp     ocp.Response
	length   int
	// hops counts the packet's router-to-router link traversals (head
	// flit), feeding the per-hop histogram at retirement.
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

func (p *packet) vc() int {
	if p.isResp {
		return vcResp
	}
	return vcReq
}

// flit is one link-level transfer unit. The packet pointer rides along on
// every flit so reassembly needs no sequence bookkeeping (wormhole
// allocation keeps a packet's flits contiguous per VC anyway).
type flit struct {
	pkt     *packet
	idx     int
	arrived uint64 // cycle the flit entered its current buffer
}

func (f *flit) head() bool { return f.idx == 0 }
func (f *flit) tail() bool { return f.idx == f.pkt.length-1 }

// fifo is a fixed-capacity flit ring buffer. Router input FIFOs are bounded
// by BufferFlits, so the storage is allocated once at mesh construction and
// the per-flit path never allocates.
type fifo struct {
	buf  []flit
	head int
	n    int

	// poppedN counts pops during cycle poppedAt. downstreamSpace uses the
	// pair to reconstruct a FIFO's cycle-start occupancy (len + pops this
	// cycle), which makes downstream-space checks independent of router
	// tick order — the property that lets a cut link behave exactly like a
	// local one.
	poppedN  int
	poppedAt uint64
}

func (f *fifo) init(capacity int) {
	f.buf = make([]flit, capacity)
	f.poppedAt = ^uint64(0)
}

func (f *fifo) push(fl flit) {
	if f.n == len(f.buf) {
		panic("noc: fifo overflow")
	}
	i := f.head + f.n
	if i >= len(f.buf) {
		i -= len(f.buf)
	}
	f.buf[i] = fl
	f.n++
}

func (f *fifo) empty() bool  { return f.n == 0 }
func (f *fifo) len() int     { return f.n }
func (f *fifo) front() *flit { return &f.buf[f.head] }

func (f *fifo) pop() flit {
	fl := f.buf[f.head]
	f.buf[f.head].pkt = nil // drop the packet reference for the pool's sake
	if f.head++; f.head == len(f.buf) {
		f.head = 0
	}
	f.n--
	return fl
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
	wantUnknown = -1 // the front flit has not been looked at (or there is none)
	wantNone    = -2 // the front flit is not a head: it requests nothing
)

// router is one fabric node's switch. The switch state proper — owners,
// round-robin pointers and the masks over them — is kept in small types
// side by side: a tick reads all of it, and on a large mesh every cache
// line a router spans is a miss.
type router struct {
	n     *Network
	id    int
	x, y  int
	in    [numPorts][numVC]fifo
	local localSink // attached NI, or nil

	alloc [numPorts][numVC]hold // wormhole owner per (output, out-VC)
	rrVC  [numPorts]uint8
	rrIn  [numPorts][numVC]uint8

	// occ and held summarise in and alloc so a tick visits only what can
	// move: occ has bit p*numVC+vc set while input FIFO (p, vc) holds a
	// flit, held has bit o*numVC+ovc set while channel (o, ovc) has a
	// wormhole owner. want[p*numVC+vc] caches the channel (o*numVC+ovc) the
	// FIFO's front flit requests, resolved once per front flit (wantUnknown
	// until then, wantNone for a body or tail flit); a pop — the only way a
	// non-empty FIFO's front changes — resets it. CheckInvariants verifies
	// all three against the tables.
	occ, held uint32
	want      [numPorts * numVC]int8

	// nb[dir] is the router one hop out of dir (nil where a mesh has no
	// link) and wrap[dir] whether that hop crosses a torus dateline; both
	// are fixed at construction.
	nb   [numPorts]*router
	wrap [numPorts]bool

	// st is the pool/stats domain this router charges: the network's own in
	// the single-engine configuration, its region's after Partition.
	st *shardState
	// cut[dir] is non-nil when output dir crosses a shard boundary (flits
	// leave through the link's export ring); inCut[port] is non-nil when
	// input port is fed from another shard (pops are credited back to the
	// exporter through the link's counters).
	cut   [numPorts]*cutLink
	inCut [numPorts]*cutLink
}

// localSink is the NI side of a router's local port.
type localSink interface {
	acceptFlit(fl flit, cycle uint64)
}

// route returns the output port for a flit headed to dst (see dorPort).
func (r *router) route(dst int) int {
	c := &r.n.cfg
	d := r.n.routers[dst]
	return dorStep(c.Topology, c.Width, c.Height, d.x-r.x, d.y-r.y)
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
		return r.x == r.n.cfg.Width-1
	case portW:
		return r.x == 0
	case portS:
		return r.y == r.n.cfg.Height-1
	case portN:
		return r.y == 0
	}
	return false
}

// sameDim reports whether two router ports travel the same dimension.
func sameDim(a, b int) bool {
	ax := a == portE || a == portW
	bx := b == portE || b == portW
	ay := a == portN || a == portS
	by := b == portN || b == portS
	return (ax && bx) || (ay && by)
}

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
	if r.wrap[o] {
		return datelineVC(vc)
	}
	if sameDim(in, o) {
		return vc
	}
	return baseVC(vc)
}

// pushIn is the one way a flit enters a router — from a neighbour's
// deliver, an NI's injection or a cut-link import. It keeps the occupancy
// mask and the owning domain's active-router set in step with the FIFOs, so
// the pusher must be the goroutine ticking r's domain (every caller is: a
// local link stays inside its domain, and a cut link is imported by the
// destination's own Exchange).
func (r *router) pushIn(p, vc int, fl flit) {
	r.in[p][vc].push(fl)
	if r.occ == 0 {
		r.st.active[r.id>>6] |= 1 << (r.id & 63)
	}
	r.occ |= 1 << (p*numVC + vc)
}

// downstreamSpace reports whether output dir of this router can accept a
// flit on vc this cycle. This is the fabric's one flow-control rule: the
// check is conservative, using the downstream FIFO's occupancy as of the
// start of the cycle (current length plus pops made this cycle, or the
// exporter's credit view over a cut link). The answer therefore never
// depends on which routers happened to tick first, so the outcome of a
// cycle is a pure function of the state at its start — the invariant that
// makes the unpartitioned fabric and every partition of it compute the
// same flit movements, and that lets a cycle skip every router holding no
// flit (see Network.tick).
func (r *router) downstreamSpace(dir, vc int, cycle uint64) bool {
	if dir == portL {
		return r.local != nil // NIs always sink delivered flits
	}
	if cl := r.cut[dir]; cl != nil {
		return cl.pushed[vc]-cl.credit[vc] < uint64(r.n.cfg.BufferFlits)
	}
	nb := r.nb[dir]
	if nb == nil {
		panic(fmt.Sprintf("noc: no neighbor %d of node %d", dir, r.id))
	}
	q := &nb.in[opposite(dir)][vc]
	occ := q.len()
	if q.poppedAt == cycle {
		occ += q.poppedN
	}
	return occ < r.n.cfg.BufferFlits
}

// deliver moves a flit out of output dir.
func (r *router) deliver(dir, vc int, fl flit, cycle uint64) {
	if dir == portL {
		r.local.acceptFlit(fl, cycle)
		r.st.residentFlits--
		return
	}
	if fl.head() {
		fl.pkt.hops++
	}
	fl.arrived = cycle
	if cl := r.cut[dir]; cl != nil {
		// Cross-shard hop: park the flit in the link's export ring. The
		// importing shard moves it into the destination FIFO at the window
		// boundary, stamped with the same arrival cycle a local push would
		// have used, so timing is identical to an uncut link.
		cl.push(vc, fl)
		r.st.residentFlits--
		return
	}
	r.nb[dir].pushIn(opposite(dir), vc, fl)
}

// resolve fills in want[b] from input FIFO b's front flit: the route and
// out-VC of a head flit, computed this once per router it crosses.
func (r *router) resolve(b int) int8 {
	p, vc := b/numVC, b%numVC
	fl := r.in[p][vc].front()
	w := int8(wantNone)
	if fl.head() {
		o := r.route(fl.pkt.dst)
		w = int8(o*numVC + r.outVC(p, vc, o))
	}
	r.want[b] = w
	return w
}

// requests returns the channels the front flits of the given occupied input
// FIFOs ask for, as candidate bits.
func (r *router) requests(fifos uint32) (cand uint32) {
	for ; fifos != 0; fifos &= fifos - 1 {
		b := bits.TrailingZeros32(fifos)
		w := r.want[b]
		if w == wantUnknown {
			w = r.resolve(b)
		}
		if w >= 0 {
			cand |= 1 << w
		}
	}
	return cand
}

// allChannels masks a router's numPorts×numVC FIFO (or channel) bits, and
// classFIFOs[c] those of the input FIFOs of message class c (its base and
// dateline VC at every port). The masks below rely on VC numbering: class
// is the low bit, and a class's base VC sorts before its dateline VC.
const allChannels = 1<<(numPorts*numVC) - 1

var classFIFOs = func() (m [2]uint32) {
	for p := 0; p < numPorts; p++ {
		m[vcReq] |= (1<<vcReq | 1<<vcReqDL) << (p * numVC)
		m[vcResp] |= (1<<vcResp | 1<<vcRespDL) << (p * numVC)
	}
	return m
}()

// tick performs switch allocation and forwards at most one flit per output
// port (the physical link constraint), choosing among VCs round-robin.
//
// Only candidate (output, out-VC) channels are probed: those with a
// wormhole owner plus those a front head flit requests. The set is a
// superset of the channels on which tryForward could change any state — a
// channel with neither an owner nor a requesting head has nothing to
// allocate and nothing to forward — so skipping the rest leaves every
// round-robin pointer, allocation and flit movement exactly as a scan of
// all numPorts×numVC channels would. A forward can surface the next
// packet's head in the FIFO it popped, which may ask for a later output in
// this same tick, so the set is topped up after every forward.
func (r *router) tick(cycle uint64) {
	cand := r.held | r.requests(r.occ)
	// Outputs in ascending order, each one's VCs from its round-robin
	// pointer; rest holds the candidates of the outputs still to visit.
	for rest := cand; rest != 0; {
		o := bits.TrailingZeros32(rest) / numVC
		for k := 0; k < numVC; k++ {
			vc := (int(r.rrVC[o]) + k) & (numVC - 1)
			if cand&(1<<(o*numVC+vc)) == 0 {
				continue
			}
			if from, ok := r.tryForward(o, vc, cycle); ok {
				cand |= r.requests(r.occ & (1 << from))
				break
			}
		}
		rest = cand &^ (1<<((o+1)*numVC) - 1)
	}
}

// tryForward moves one flit through output o on outgoing VC ovc and
// reports the input FIFO (p*numVC+vc) it came from. The input VC feeding
// an out-VC can be the same class's base or dateline VC (torus turns reset
// the dateline bit, wrap links set it); the allocation fixes one (input
// port, input VC) owner until the packet's tail passes.
func (r *router) tryForward(o, ovc int, cycle uint64) (from int, ok bool) {
	if fa := r.n.faults; fa != nil && fa.stalled(r.id, o, cycle) {
		return 0, false
	}
	if r.alloc[o][ovc].in < 0 {
		r.allocate(o, ovc, cycle)
	}
	return r.forward(o, ovc, cycle)
}

// allocate grants the free channel (o, ovc) to an input whose head flit
// requests o and would leave on ovc: input ports round-robin from rrIn,
// base VC before dateline VC within a port. Rotating the occupied FIFOs of
// ovc's class down by the pointer turns that order into ascending bit
// order.
func (r *router) allocate(o, ovc int, cycle uint64) {
	ch := o*numVC + ovc
	rot := uint(r.rrIn[o][ovc]) * numVC
	m := r.occ & classFIFOs[ovc&1]
	for m = (m>>rot | m<<(numPorts*numVC-rot)) & allChannels; m != 0; m &= m - 1 {
		b := bits.TrailingZeros32(m) + int(rot)
		if b >= numPorts*numVC {
			b -= numPorts * numVC
		}
		if int(r.want[b]) == ch && r.in[b/numVC][b%numVC].front().arrived < cycle {
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
func (r *router) forward(o, ovc int, cycle uint64) (from int, ok bool) {
	a := r.alloc[o][ovc]
	if a.in < 0 {
		return 0, false
	}
	q := &r.in[a.in][a.invc]
	if q.empty() {
		return 0, false
	}
	fl := q.front()
	if fl.arrived >= cycle { // one hop per cycle
		return 0, false
	}
	if !r.downstreamSpace(o, ovc, cycle) {
		return 0, false
	}
	from = int(a.in)*numVC + int(a.invc)
	moved := q.pop()
	r.want[from] = wantUnknown
	if q.empty() {
		r.occ &^= 1 << from
	}
	if q.poppedAt != cycle {
		q.poppedAt, q.poppedN = cycle, 0
	}
	q.poppedN++
	if cl := r.inCut[a.in]; cl != nil {
		cl.popped[a.invc]++
	}
	if moved.tail() {
		r.alloc[o][ovc] = hold{in: -1}
		r.held &^= 1 << (o*numVC + ovc)
	}
	r.rrVC[o] = uint8(ovc+1) & (numVC - 1)
	r.st.flitsRouted++
	r.st.flitsVC[ovc].Inc()
	if fa := r.n.faults; fa != nil && fa.dropped(r.id, o, cycle) {
		// Injected fault: the flit vanishes with its bookkeeping
		// deliberately left inconsistent, so the conservation (and, for a
		// tail, pool-mass) watchdogs have something real to catch.
		return from, true
	}
	r.deliver(o, ovc, moved, cycle)
	return from, true
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

	// faults holds the compiled fault-injection tables (nil on an
	// uninjected network — the hot-path hooks are a single nil check); see
	// fault.go.
	faults *faultSet
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
	n.st.hops = newHopsHistogram()
	total := n.cfg.Width * n.cfg.Height
	n.st.active = make([]uint64, (total+63)/64)
	for id := 0; id < total; id++ {
		r := &router{n: n, id: id, x: id % n.cfg.Width, y: id / n.cfg.Width, st: &n.st}
		for o := 0; o < numPorts; o++ {
			for v := 0; v < numVC; v++ {
				r.alloc[o][v] = hold{in: -1}
				r.in[o][v].init(n.cfg.BufferFlits)
				r.want[o*numVC+v] = wantUnknown
			}
		}
		n.routers = append(n.routers, r)
	}
	for _, r := range n.routers {
		for dir := portN; dir < portL; dir++ {
			if n.hasLink(r, dir) {
				r.nb[dir] = n.neighbor(r.id, dir)
				r.wrap[dir] = r.wraps(dir)
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

// Config returns the effective configuration.
func (n *Network) Config() Config { return n.cfg }

// Nodes returns the number of fabric nodes.
func (n *Network) Nodes() int { return len(n.routers) }

// Topology returns the fabric's link structure.
func (n *Network) Topology() Topology { return n.cfg.Topology }

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

// DecodeErrors returns the number of requests that decoded to no slave.
func (n *Network) DecodeErrors() uint64 {
	v := n.st.decodeErrors.Value()
	for _, rg := range n.regions {
		v += rg.st.decodeErrors.Value()
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
// downstreamSpace reads cycle-start occupancy no router's outcome depends
// on whether a neighbour has ticked yet, so leaving the empty ones out
// changes nothing; the set is walked in ascending router id, the order a
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

// reqFlits returns the request packet length: header + address/meta flit,
// plus one payload flit per written word.
func reqFlits(req *ocp.Request) int {
	if req.Cmd.IsWrite() {
		return 2 + req.Burst
	}
	return 2
}

// respFlits returns the response packet length: header + status flit, plus
// one flit per read data word.
func respFlits(req *ocp.Request) int {
	if req.Cmd.IsRead() {
		return 2 + req.Burst
	}
	return 2
}
