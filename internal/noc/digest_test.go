package noc

import (
	"fmt"
	"path/filepath"
	"testing"

	"noctg/internal/mem"
	"noctg/internal/ocp"
	"noctg/internal/simtest"
)

// This file pins the fabric's complete per-cycle state. The digests in
// testdata/fabric_digest.json were generated from the exhaustive-scan
// fabric (every router ticked every cycle, every (output, VC) pair probed);
// any schedule that ticks or probes less must reproduce them bit for bit,
// unpartitioned and under every partition with a boundary exchange each
// cycle.

// Traffic shapes of the seeded drivers.
const (
	trafficSparse   = iota // Poisson-like single reads, mean gap ~32 cycles
	trafficSaturate        // back-to-back burst reads and posted burst writes, uniform
	trafficHotspot         // reads to one slave plus posted 4-word burst writes
	numTraffic
)

var trafficNames = [numTraffic]string{"sparse", "saturated", "hotspot"}

// fabricSpec is one seeded fabric configuration.
type fabricSpec struct {
	topo    Topology
	w, h    int
	buf     int
	traffic int
	seed    uint64
}

func (s fabricSpec) String() string {
	return fmt.Sprintf("%v-%dx%d-b%d-%s", s.topo, s.w, s.h, s.buf, trafficNames[s.traffic])
}

// xorshift is the drivers' private generator: the pinned digests must not
// depend on a library's stream.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

// below returns a value in [0, n).
func (x *xorshift) below(n int) int { return int((x.next() >> 11) % uint64(n)) }

// driver is a seeded OCP master: it draws a request, presents it until the
// NI accepts, waits for the response of a read, idles a drawn gap, repeats.
type driver struct {
	port     ocp.MasterPort
	rng      xorshift
	req      ocp.Request
	gap      uint64
	nextAt   uint64
	offering bool
	waiting  bool
	data     [4]uint32
}

// slaveBase is the address of slave j's 4 KB RAM.
func slaveBase(j int) uint32 { return 0x1000_0000 + uint32(j)<<12 }

// draw picks the driver's next request and the idle gap that follows it.
func (d *driver) draw(traffic, slaves int) {
	r := &d.rng
	d.req = ocp.Request{Cmd: ocp.Read, Burst: 1}
	dst := r.below(slaves)
	switch traffic {
	case trafficSparse:
		d.gap = uint64(r.below(64))
		if r.below(64) == 0 {
			// An unmapped read: the NI synthesises the error response locally.
			d.req.Addr = 0x9f00_0000
			return
		}
	case trafficSaturate:
		d.gap = 0
		d.req.Burst = 1 + r.below(4)
		d.req.Cmd = ocp.BurstRead
		if r.below(2) == 0 {
			d.req.Cmd = ocp.BurstWrite
		}
	case trafficHotspot:
		d.gap = uint64(r.below(4))
		if r.below(5) < 3 {
			dst = 0
		} else {
			d.req.Cmd, d.req.Burst = ocp.BurstWrite, 4
		}
	}
	d.req.Addr = slaveBase(dst) + uint32(r.below(256))*4
	if d.req.Cmd.IsWrite() {
		for i := 0; i < d.req.Burst; i++ {
			d.data[i] = uint32(r.next())
		}
		d.req.Data = d.data[:d.req.Burst]
	}
}

func (d *driver) tick(cycle uint64, traffic, slaves int) {
	if d.waiting {
		if _, ok := d.port.TakeResponse(); !ok {
			return
		}
		d.waiting = false
	}
	if !d.offering {
		if cycle < d.nextAt {
			return
		}
		d.draw(traffic, slaves)
		d.offering = true
	}
	if d.port.TryRequest(&d.req) {
		d.offering = false
		d.waiting = d.req.Cmd.IsRead()
		d.nextAt = cycle + 1 + d.gap
	}
}

// fabricRig drives one network without an engine: drivers first, then the
// fabric, as the platform's tick order has it.
type fabricRig struct {
	spec    fabricSpec
	net     *Network
	regions []*Region // nil when unpartitioned
	drivers []*driver
	slaves  int
	cycle   uint64
	// schedule, when set, gates the drivers: driver i operates its port in
	// cycle c only if bit c*len(drivers)+i of it, read cyclically, is set.
	schedule []byte
}

// newFabricRig builds spec's network — masters on the first two fifths of
// the nodes, RAMs with 0–2 wait states on the last third — and partitions
// it into parts row bands (0 leaves it unpartitioned).
func newFabricRig(t testing.TB, spec fabricSpec, parts int) *fabricRig {
	t.Helper()
	g := &fabricRig{spec: spec}
	g.net = New(Config{Width: spec.w, Height: spec.h, Topology: spec.topo, BufferFlits: spec.buf},
		func() uint64 { return g.cycle })
	nodes := spec.w * spec.h
	masters := (nodes + 1) * 2 / 5
	g.slaves = max(2, nodes/3)
	for i := 0; i < masters; i++ {
		g.drivers = append(g.drivers, &driver{
			port: g.net.AttachMaster(i),
			rng:  xorshift(spec.seed*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9 | 1),
		})
	}
	for j := 0; j < g.slaves; j++ {
		ram := mem.NewRAM(fmt.Sprintf("ram%d", j), slaveBase(j), 1<<12, uint64(j%3))
		if err := g.net.AttachSlave(nodes-1-j, ram, ram.Range()); err != nil {
			t.Fatal(err)
		}
	}
	if parts > 0 {
		g.regions = g.net.Partition(parts)
	}
	return g
}

// step advances one cycle through the production schedule.
func (g *fabricRig) step() {
	g.stepWith(func(cycle uint64) {
		if g.regions == nil {
			g.net.Tick(cycle)
			return
		}
		for _, rg := range g.regions {
			rg.Tick(cycle)
		}
	})
}

// stepWith advances one cycle, ticking the fabric through tick; on a
// partitioned network every region then runs its boundary exchange, so the
// state between cycles is the unpartitioned fabric's.
func (g *fabricRig) stepWith(tick func(cycle uint64)) {
	for i, d := range g.drivers {
		if n := uint64(len(g.schedule)) * 8; n != 0 {
			if bit := (g.cycle*uint64(len(g.drivers)) + uint64(i)) % n; g.schedule[bit/8]>>(bit%8)&1 == 0 {
				continue
			}
		}
		d.tick(g.cycle, g.spec.traffic, g.slaves)
	}
	tick(g.cycle)
	for _, rg := range g.regions {
		rg.Exchange()
	}
	g.cycle++
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// appendFabricState appends the fabric's complete simulated state as words:
// every router in id order (per (port, VC) the FIFO length, wormhole owner
// and input round-robin pointer, then each buffered flit; the VC
// round-robin pointers), the per-domain accounts summed over domains (so
// one encoding serves every partition), and every NI in attach order.
// Bookkeeping that only accelerates the schedule is deliberately absent.
func appendFabricState(dst []uint64, n *Network) []uint64 {
	for _, r := range n.routers {
		for p := 0; p < numPorts; p++ {
			for v := 0; v < numVC; v++ {
				b := p*numVC + v
				a := r.alloc[p][v]
				w := uint64(r.queued(b)) | uint64(r.rrIn[p][v])<<24
				if a.in >= 0 {
					w |= uint64(a.in+1)<<8 | uint64(a.invc)<<16
				}
				dst = append(dst, w)
				for i := 0; i < r.queued(b); i++ {
					fl := r.flitAt(b, i)
					dst = append(dst,
						uint64(fl.pkt.src)|uint64(fl.pkt.dst)<<16|b2u(fl.pkt.isResp)<<32|uint64(fl.idx)<<40,
						fl.arrived)
				}
			}
		}
		var rr uint64
		for o := 0; o < numPorts; o++ {
			rr |= uint64(r.rrVC[o]) << (8 * o)
		}
		dst = append(dst, rr)
	}
	routed, resident, retired, live := n.st.flitsRouted.Value(), n.st.residentFlits, n.st.retired, n.st.livePackets
	for _, rg := range n.regions {
		routed += rg.st.flitsRouted.Value()
		resident += rg.st.residentFlits
		retired += rg.st.retired
		live += rg.st.livePackets
	}
	dst = append(dst, routed, uint64(resident), retired, uint64(live))
	for _, m := range n.masters {
		dst = append(dst,
			uint64(m.state)|uint64(m.nextFlit)<<8|b2u(m.hasResp)<<32|b2u(m.busyRead)<<33|uint64(m.rxFlits)<<40,
			m.respAt)
	}
	for _, s := range n.slaves {
		dst = append(dst,
			uint64(len(s.queue)-s.qhead)|b2u(s.current != nil)<<32|b2u(s.out != nil)<<33|uint64(s.nextFlit)<<40,
			s.doneAt)
	}
	return dst
}

// foldWords folds words into an FNV-1a style running hash, one 64-bit word
// per round (the byte-wise form costs 8x as much and the state is already
// word-shaped).
func foldWords(h uint64, words []uint64) uint64 {
	for _, w := range words {
		h = (h ^ w) * 1099511628211
	}
	return h
}

const fnvOffset64 = 14695981039346656037

// digestCycles is the length of every pinned run.
const digestCycles = 2000

// digestSpecs enumerates the pinned configurations: mesh and torus ×
// three sizes × three buffer depths × three traffic shapes.
func digestSpecs() []fabricSpec {
	var specs []fabricSpec
	seed := uint64(1)
	for _, topo := range []Topology{Mesh, Torus} {
		for _, d := range [][2]int{{2, 2}, {4, 3}, {5, 5}} {
			for _, buf := range []int{1, 2, 4} {
				for traffic := 0; traffic < numTraffic; traffic++ {
					specs = append(specs, fabricSpec{topo: topo, w: d[0], h: d[1], buf: buf, traffic: traffic, seed: seed})
					seed++
				}
			}
		}
	}
	return specs
}

// runDigest runs spec for digestCycles under the given partition count and
// returns the digest of every inter-cycle state.
func runDigest(t *testing.T, spec fabricSpec, parts int) (digest string, g *fabricRig) {
	g = newFabricRig(t, spec, parts)
	h := uint64(fnvOffset64)
	var words []uint64
	for g.cycle < digestCycles {
		g.step()
		words = appendFabricState(words[:0], g.net)
		h = foldWords(h, words)
	}
	return fmt.Sprintf("%016x", h), g
}

var fabricDigestPath = filepath.Join("testdata", "fabric_digest.json")

// TestArtifacts is the package's artifact table: the fabric digest.
func TestArtifacts(t *testing.T) {
	simtest.Artifacts(t, simtest.Artifact{Name: "fabric_digest", Path: fabricDigestPath,
		Produce: func(t *testing.T) []byte { return fabricDigests(t, 0) }})
}

// TestFabricDigest: every pinned configuration cut into 1, 2 and 3 row
// bands (at most its height) that exchange every cycle reproduces the
// unpartitioned digests.
func TestFabricDigest(t *testing.T) {
	for parts := 1; parts <= 3; parts++ {
		simtest.Pin(t, "fabric_digest", fabricDigestPath, fabricDigests(t, parts))
	}
}

// fabricDigests runs every pinned configuration under the given partition
// count, requires each run to move flits and end with its invariants
// intact, and renders the digests.
func fabricDigests(t *testing.T, parts int) []byte {
	got := map[string]string{}
	for _, spec := range digestSpecs() {
		d, g := runDigest(t, spec, parts)
		got[spec.String()] = d
		if g.net.FlitsRouted() == 0 {
			t.Errorf("%s parts=%d: no flit moved", spec, parts)
		}
		if v := g.net.CheckInvariants(); v != nil {
			t.Errorf("%s parts=%d: %v", spec, parts, v)
		}
	}
	return simtest.JSON(t, got)
}
