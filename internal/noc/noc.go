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
	f.buf[(f.head+f.n)%len(f.buf)] = fl
	f.n++
}

func (f *fifo) empty() bool  { return f.n == 0 }
func (f *fifo) len() int     { return f.n }
func (f *fifo) front() *flit { return &f.buf[f.head] }

func (f *fifo) pop() flit {
	fl := f.buf[f.head]
	f.buf[f.head].pkt = nil // drop the packet reference for the pool's sake
	f.head = (f.head + 1) % len(f.buf)
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
	in   int // input port, -1 when the channel is free
	invc int // input VC the owning packet's flits arrive on
}

// router is one fabric node's switch.
type router struct {
	n     *Network
	id    int
	x, y  int
	in    [numPorts][numVC]fifo
	alloc [numPorts][numVC]hold // wormhole owner per (output, out-VC)
	rrVC  [numPorts]int
	rrIn  [numPorts][numVC]int
	local localSink // attached NI, or nil

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
	return dorPort(c.Topology, c.Width, c.Height, r.x, r.y, dst)
}

// wraps reports whether this router's output dir is a torus wrap link (the
// ring's dateline).
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
	if r.wraps(o) {
		return datelineVC(vc)
	}
	if sameDim(in, o) {
		return vc
	}
	return baseVC(vc)
}

// downstreamSpace reports whether output dir of this router can accept a
// flit on vc this cycle. This is the fabric's one flow-control rule: the
// check is conservative, using the downstream FIFO's occupancy as of the
// start of the cycle (current length plus pops made this cycle, or the
// exporter's credit view over a cut link). The answer therefore never
// depends on which routers happened to tick first, so the outcome of a
// cycle is a pure function of the state at its start — the invariant that
// makes the unpartitioned fabric and every partition of it compute the
// same flit movements.
func (r *router) downstreamSpace(dir, vc int, cycle uint64) bool {
	if dir == portL {
		return r.local != nil // NIs always sink delivered flits
	}
	if cl := r.cut[dir]; cl != nil {
		return cl.pushed[vc]-cl.credit[vc] < uint64(r.n.cfg.BufferFlits)
	}
	nb := r.n.neighbor(r.id, dir)
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
	nb := r.n.neighbor(r.id, dir)
	nb.in[opposite(dir)][vc].push(fl)
}

// tick performs switch allocation and forwards at most one flit per output
// port (the physical link constraint), choosing among VCs round-robin.
func (r *router) tick(cycle uint64) {
	for o := 0; o < numPorts; o++ {
		for k := 0; k < numVC; k++ {
			vc := (r.rrVC[o] + k) % numVC
			if r.tryForward(o, vc, cycle) {
				r.rrVC[o] = (vc + 1) % numVC
				r.st.flitsRouted++
				r.st.flitsVC[vc].Inc()
				break
			}
		}
	}
}

// tryForward moves one flit through output o on outgoing VC ovc. The input
// VC feeding an out-VC can be the same class's base or dateline VC (torus
// turns reset the dateline bit, wrap links set it); the allocation fixes
// one (input port, input VC) owner until the packet's tail passes.
func (r *router) tryForward(o, ovc int, cycle uint64) bool {
	if fa := r.n.faults; fa != nil && fa.stalled(r.id, o, cycle) {
		return false
	}
	if r.alloc[o][ovc].in < 0 {
		// Allocate the wormhole to an input whose head flit requests o
		// and would leave on ovc.
		n := numPorts
	scan:
		for k := 0; k < n; k++ {
			i := (r.rrIn[o][ovc] + k) % n
			for _, invc := range [2]int{baseVC(ovc), datelineVC(ovc)} {
				q := &r.in[i][invc]
				if q.empty() {
					continue
				}
				fl := q.front()
				if !fl.head() || fl.arrived >= cycle {
					continue
				}
				if r.route(fl.pkt.dst) != o || r.outVC(i, invc, o) != ovc {
					continue
				}
				r.alloc[o][ovc] = hold{in: i, invc: invc}
				r.rrIn[o][ovc] = (i + 1) % n
				break scan
			}
		}
	}
	a := r.alloc[o][ovc]
	if a.in < 0 {
		return false
	}
	q := &r.in[a.in][a.invc]
	if q.empty() {
		return false
	}
	fl := q.front()
	if fl.arrived >= cycle { // one hop per cycle
		return false
	}
	if !r.downstreamSpace(o, ovc, cycle) {
		return false
	}
	moved := q.pop()
	if q.poppedAt != cycle {
		q.poppedAt, q.poppedN = cycle, 0
	}
	q.poppedN++
	if cl := r.inCut[a.in]; cl != nil {
		cl.popped[a.invc]++
	}
	if moved.tail() {
		r.alloc[o][ovc] = hold{in: -1}
	}
	if fa := r.n.faults; fa != nil && fa.dropped(r.id, o, cycle) {
		// Injected fault: the flit vanishes with its bookkeeping
		// deliberately left inconsistent, so the conservation (and, for a
		// tail, pool-mass) watchdogs have something real to catch.
		return true
	}
	r.deliver(o, ovc, moved, cycle)
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
	// livePackets counts packets currently out of the pool — the cheap
	// quiescence signal the unsharded NextWake uses every cycle. (A packet
	// can retire in a different shard than it was issued from, so sharded
	// quiescence uses residentFlits + NI idleness per region instead.)
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
	// decremented on local delivery and cross-shard export.
	residentFlits int
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
	for id := 0; id < total; id++ {
		r := &router{n: n, id: id, x: id % n.cfg.Width, y: id / n.cfg.Width, st: &n.st}
		for o := 0; o < numPorts; o++ {
			for v := 0; v < numVC; v++ {
				r.alloc[o][v] = hold{in: -1}
				r.in[o][v].init(n.cfg.BufferFlits)
			}
		}
		n.routers = append(n.routers, r)
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

// SlaveErrors returns the number of error responses from attached slaves.
func (n *Network) SlaveErrors() uint64 {
	v := n.st.slaveErrors.Value()
	for _, rg := range n.regions {
		v += rg.st.slaveErrors.Value()
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
	ni := &masterNI{net: n, node: node, st: &n.st, now: n.now, lat: sim.NewLatencyHistogram(),
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
	ni := &slaveNI{net: n, node: node, st: &n.st, slave: slave, rng: rng,
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
	for _, m := range n.masters {
		m.tick(cycle)
	}
	for _, s := range n.slaves {
		s.tick(cycle)
	}
	for _, r := range n.routers {
		r.tick(cycle)
	}
}

// Idle reports whether no flits, pending NI work or undelivered responses
// remain anywhere in the fabric.
func (n *Network) Idle() bool {
	for _, r := range n.routers {
		for p := 0; p < numPorts; p++ {
			for v := 0; v < numVC; v++ {
				if !r.in[p][v].empty() {
					return false
				}
			}
		}
	}
	return n.nisIdle()
}

func (n *Network) nisIdle() bool {
	for _, m := range n.masters {
		if !m.idle() {
			return false
		}
	}
	for _, s := range n.slaves {
		if !s.idle() {
			return false
		}
	}
	return true
}

// NextWake implements sim.Sleeper. The NoC has no timed state of its own —
// flits move whenever they can — so it is either active this cycle or
// quiescent until some master injects again; the injection (a TryRequest on
// a master NI) fires the wake hook, so quiescence is a safe promise even
// under the event kernel, where a sleeping network is not ticked at all
// while other devices run. Every in-network flit belongs to a live pooled
// packet, so livePackets == 0 makes the full router scan unnecessary.
func (n *Network) NextWake(now uint64) uint64 {
	if n.st.livePackets == 0 && n.nisIdle() {
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
