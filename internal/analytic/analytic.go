// Package analytic is the closed-form queueing estimator behind the
// sweep layer's analytical fast-path: it maps a sweep point (fabric
// topology, spatial traffic pattern, arrival process) onto a predicted
// zero-load latency, per-load-level mean latency and saturation-knee load
// without running a single simulated cycle.
//
// The model follows the per-router channel-load construction of Mandal et
// al.'s analytical NoC performance models (arXiv 1908.02408), adapted to
// this repository's closed-loop generators: every master keeps one
// outstanding transaction, so the system is a closed queueing network
// with N customers and the drawn inter-transaction gap as think time. Spatial patterns become a
// per-source destination distribution; dimension-ordered route enumeration
// (noc.Config.Route — pinned to the live router's decision by test) turns
// that distribution into per-channel flit loads; the per-transaction
// demand on the most loaded resource then gives the saturation knee
// through the operational bottleneck law, and an approximate-MVA fixed
// point with an M/G/1-style burstiness correction gives the latency at
// every load level in between.
//
// Structural assumptions (each one a named error-bar contributor):
//
//   - Contention-free zero-load pipeline: the zero-load latency formulas
//     reproduce the NI/router/slave cycle accounting exactly on an empty
//     fabric; calibration tests pin them against simulation.
//   - Independence: per-channel loads superpose linearly; wormhole
//     blocking and VC backpressure are not modelled (their effect appears
//     near the knee, inside the knee error bar).
//   - Symmetric progress: every master injects at the same rate, so
//     per-resource utilization is rate × summed demand. Asymmetric
//     patterns (hotspot) stress this least-well near saturation.
//
// The estimator's hot path (Estimate, LatencyAt) performs no allocation;
// compile-time work happens once in New.
package analytic

import (
	"fmt"
	"math"

	"noctg/internal/noc"
)

// Fabric kinds.
const (
	KindAMBA   = "amba"
	KindXPipes = "xpipes"
)

// Fabric describes the interconnect of the point under estimation.
type Fabric struct {
	// Kind is KindAMBA or KindXPipes.
	Kind string `json:"kind"`
	// Torus selects wrap-around rings (×pipes only).
	Torus bool `json:"torus,omitempty"`
	// Width, Height are the resolved router-grid dimensions (×pipes only;
	// auto-sized fabrics must be resolved by the caller, e.g. through
	// platform.AutoMesh).
	Width  int `json:"width,omitempty"`
	Height int `json:"height,omitempty"`
	// WaitStates is the slave intrinsic access time per burst beat.
	WaitStates float64 `json:"wait_states"`
}

// Traffic describes the traffic a point offers: where each master sits,
// where its transactions go, and the temporal shape of its injections.
type Traffic struct {
	// Masters is the generator count (the closed-network population).
	Masters int `json:"masters"`
	// MasterNode[i] is the fabric node of master i (×pipes only).
	MasterNode []int `json:"master_node,omitempty"`
	// DestNodes[i]/DestProbs[i] give master i's destination distribution
	// over fabric nodes (×pipes only): DestProbs[i][k] is the probability
	// one transaction targets DestNodes[i][k]. Probabilities must sum to 1
	// per master.
	DestNodes [][]int     `json:"dest_nodes,omitempty"`
	DestProbs [][]float64 `json:"dest_probs,omitempty"`
	// ReadFraction is the probability a transaction is a (blocking) read;
	// the remainder are posted writes.
	ReadFraction float64 `json:"read_fraction"`
	// Burst is the data beats per transaction.
	Burst int `json:"burst"`
	// GapSCV is the squared coefficient of variation of the drawn
	// inter-transaction gaps (stochastic.Config.GapSCV) — the burstiness
	// input of the waiting-time term.
	GapSCV float64 `json:"gap_scv"`
	// MeanGap is the source's own mean gap in cycles for fixed-load
	// sources (MMPP/self-similar arrival processes); 0 for gap-swept
	// workloads, whose load is supplied per call (LatencyAt).
	MeanGap float64 `json:"mean_gap,omitempty"`
}

// Spec is one fully-described estimation point.
type Spec struct {
	Fabric  Fabric  `json:"fabric"`
	Traffic Traffic `json:"traffic"`
}

// Zero-load pipeline constants, matching the cycle accounting of the live
// models. All latencies are assert→event, the anchor of the generators'
// ReqLatency histogram and the curve layer's LatencyMean. Calibrated
// against simulation (see TestAnalyticZeroLoadCalibration):
//
// ×pipes read: assert→flit0 same cycle, one hop per cycle with one
// ejection cycle each way, slave pick + serve (1 + access), one-cycle
// response drain start, RespCycles delivery margin — in total
// 2·dist + reqFlits + respFlits + access + xpReadConst. Measured: 18
// cycles at distance 4 with one wait state (16 accept→response + the
// 2-flit request injection).
// ×pipes write: accepted the cycle after the tail flit enters the local
// router: reqFlits cycles after assert.
// AMBA read: request cycle + grant-to-address cycle + one data phase per
// beat extended by the slave wait states (measured: 4 at ws=1, 7 at
// ws=4); AMBA writes are posted — accepted one cycle after assert, the
// data phases drain on the bus behind the master's back.
const (
	xpReadConst = 4.0
	ambaGrant   = 1.0
	ambaAddr    = 1.0
	ambaBeat    = 1.0
)

// resource is one capacity-1 server of the compiled model.
type resource struct {
	// name identifies the resource in reports ("link 5E", "slave 11",
	// "inject 0", "bus").
	name string
	// demand is the summed per-transaction occupancy in cycles across all
	// masters: utilization = per-master rate × demand.
	demand float64
	// visits is the summed per-transaction visit probability across
	// masters; demand/visits is the mean occupancy per visiting
	// transaction (the M/G/1 service time of the waiting term).
	visits float64
}

// Estimator is a compiled estimation point. Compile once with New; the
// per-load queries (Estimate, LatencyAt, ThroughputAt, UtilizationAt)
// allocate nothing.
type Estimator struct {
	spec Spec

	resources  []resource
	bottleneck int // index of max-demand resource

	// r0Read / a0Write are the destination-averaged zero-load read
	// latency and write acceptance latency; t0 is the latency component
	// of the zero-load closed-loop period: r·r0Read + (1-r)·a0Write.
	r0Read  float64
	a0Write float64
	t0      float64

	// cb scales the latency-side waiting time relative to the
	// exponential AMVA baseline: the clamped arrival-gap SCV (service is
	// deterministic, so arrivals carry all the variability).
	cb float64
}

// New validates and compiles a spec.
func New(spec Spec) (*Estimator, error) {
	if err := validate(spec); err != nil {
		return nil, err
	}
	e := &Estimator{spec: spec}
	switch spec.Fabric.Kind {
	case KindAMBA:
		e.compileAMBA()
	case KindXPipes:
		e.compileXPipes()
	}
	e.t0 = spec.Traffic.ReadFraction*e.r0Read + (1-spec.Traffic.ReadFraction)*e.a0Write
	// Waiting-time burstiness relative to the exponential AMVA baseline:
	// an M/G/1 wait scales with (Ca² + Cs²)/2, and the fabrics'
	// deterministic service makes the arrival SCV the whole story. Floor
	// at 0.25 (read/write mixing keeps some variability even under
	// near-deterministic gaps); cap at 4 — long-range-dependent sources
	// exceed what a renewal waiting term can express, and the error bar
	// says so.
	e.cb = spec.Traffic.GapSCV
	if e.cb < 0.25 {
		e.cb = 0.25
	}
	if e.cb > 4 {
		e.cb = 4
	}
	for i, r := range e.resources {
		if r.demand > e.resources[e.bottleneck].demand {
			e.bottleneck = i
		}
	}
	return e, nil
}

func validate(spec Spec) error {
	t := &spec.Traffic
	if t.Masters < 1 {
		return fmt.Errorf("analytic: need at least one master, got %d", t.Masters)
	}
	if t.ReadFraction < 0 || t.ReadFraction > 1 || math.IsNaN(t.ReadFraction) {
		return fmt.Errorf("analytic: read fraction %v outside [0, 1]", t.ReadFraction)
	}
	if t.Burst < 1 {
		return fmt.Errorf("analytic: burst %d < 1", t.Burst)
	}
	if t.GapSCV < 0 || math.IsNaN(t.GapSCV) {
		return fmt.Errorf("analytic: gap SCV %v < 0", t.GapSCV)
	}
	switch spec.Fabric.Kind {
	case KindAMBA:
		return nil
	case KindXPipes:
	default:
		return fmt.Errorf("analytic: unknown fabric kind %q", spec.Fabric.Kind)
	}
	f := &spec.Fabric
	if f.Width < 2 || f.Height < 1 {
		return fmt.Errorf("analytic: ×pipes grid %dx%d too small", f.Width, f.Height)
	}
	nodes := f.Width * f.Height
	if len(t.MasterNode) != t.Masters || len(t.DestNodes) != t.Masters || len(t.DestProbs) != t.Masters {
		return fmt.Errorf("analytic: master/dest tables sized %d/%d/%d for %d masters",
			len(t.MasterNode), len(t.DestNodes), len(t.DestProbs), t.Masters)
	}
	for i := 0; i < t.Masters; i++ {
		if n := t.MasterNode[i]; n < 0 || n >= nodes {
			return fmt.Errorf("analytic: master %d at node %d outside %d-node fabric", i, n, nodes)
		}
		if len(t.DestNodes[i]) == 0 || len(t.DestNodes[i]) != len(t.DestProbs[i]) {
			return fmt.Errorf("analytic: master %d has %d dest nodes, %d probs",
				i, len(t.DestNodes[i]), len(t.DestProbs[i]))
		}
		var sum float64
		for k, d := range t.DestNodes[i] {
			if d < 0 || d >= nodes {
				return fmt.Errorf("analytic: master %d dest node %d outside %d-node fabric", i, d, nodes)
			}
			p := t.DestProbs[i][k]
			if p < 0 || p > 1 || math.IsNaN(p) {
				return fmt.Errorf("analytic: master %d dest prob %v outside [0, 1]", i, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-6 {
			return fmt.Errorf("analytic: master %d dest probs sum to %v", i, sum)
		}
	}
	return nil
}

// compileAMBA builds the single-resource bus model.
func (e *Estimator) compileAMBA() {
	t := &e.spec.Traffic
	ws := e.spec.Fabric.WaitStates
	b := float64(t.Burst)
	// Per-transaction bus occupancy: address phase + one (possibly
	// wait-stated) data phase per beat. Arbitration pipelines with the
	// last data phase, so back-to-back grants leave no idle cycle
	// (measured: 3.0 cycles/transaction at ws=1, 6.0 at ws=4).
	occ := ambaAddr + b*(ambaBeat+ws)
	e.resources = append(e.resources, resource{
		name:   "bus",
		demand: float64(t.Masters) * occ,
		visits: float64(t.Masters),
	})
	e.r0Read = ambaGrant + ambaAddr + b*(ambaBeat+ws)
	e.a0Write = 1 // posted: accepted at the grant
}

// compileXPipes enumerates DOR routes for every (master, destination)
// pair and accumulates per-channel flit loads, per-slave service demand
// and per-NI injection demand.
func (e *Estimator) compileXPipes() {
	f := &e.spec.Fabric
	t := &e.spec.Traffic
	cfg := noc.Config{Width: f.Width, Height: f.Height}
	if f.Torus {
		cfg.Topology = noc.Torus
	}
	nodes := f.Width * f.Height
	r := t.ReadFraction
	b := t.Burst
	readReq, readResp := noc.FlitCounts(false, b)
	writeReq, _ := noc.FlitCounts(true, b)
	// Expected flits per transaction on the request and response paths.
	reqF := r*float64(readReq) + (1-r)*float64(writeReq)
	respF := r * float64(readResp)
	access := f.WaitStates * float64(b)

	link := make([]float64, nodes*noc.NumPorts)
	slave := make([]float64, nodes)
	slaveVisits := make([]float64, nodes)
	inject := make([]float64, nodes)
	var path []noc.Hop

	var r0 float64
	for i := 0; i < t.Masters; i++ {
		src := t.MasterNode[i]
		inject[src] += reqF
		for k, d := range t.DestNodes[i] {
			p := t.DestProbs[i][k]
			if p == 0 {
				continue
			}
			// Request path: src -> d, every link carries the expected
			// request flits.
			path = cfg.Route(src, d, path[:0])
			for _, h := range path {
				link[h.Node*noc.NumPorts+h.Port] += p * reqF
			}
			// Response path (reads only): d -> src.
			if respF > 0 {
				path = cfg.Route(d, src, path[:0])
				for _, h := range path {
					link[h.Node*noc.NumPorts+h.Port] += p * respF
				}
			}
			// Slave service: pick + access, plus the response drain for
			// reads (the NI drains the response before serving the next
			// request).
			slave[d] += p * (1 + access + r*float64(readResp))
			slaveVisits[d] += p
			// Zero-load latency contribution.
			dist := float64(cfg.RouteLen(src, d))
			readLat := 2*dist + float64(readReq) + float64(readResp) + access + xpReadConst
			r0 += p * readLat / float64(t.Masters)
		}
	}
	e.r0Read = r0
	e.a0Write = float64(writeReq)

	for n := 0; n < nodes; n++ {
		if inject[n] > 0 {
			e.resources = append(e.resources, resource{
				name:   fmt.Sprintf("inject %d", n),
				demand: inject[n],
				// One master per node in this floorplan.
				visits: 1,
			})
		}
		if slave[n] > 0 {
			e.resources = append(e.resources, resource{
				name:   fmt.Sprintf("slave %d", n),
				demand: slave[n],
				visits: slaveVisits[n],
			})
		}
		for p := 0; p < noc.NumPorts; p++ {
			if d := link[n*noc.NumPorts+p]; d > 0 {
				e.resources = append(e.resources, resource{
					name:   fmt.Sprintf("link %d%s", n, noc.PortName(p)),
					demand: d,
					// Flit-granular server: visits in units of packets is
					// not meaningful; use demand-normalized single-flit
					// service so the waiting term sees a fine-grained
					// server.
					visits: d,
				})
			}
		}
	}
}

// Spec returns the compiled specification.
func (e *Estimator) Spec() Spec { return e.spec }

// Bottleneck returns the name of the most loaded resource and its summed
// per-transaction demand in cycles.
func (e *Estimator) Bottleneck() (string, float64) {
	r := e.resources[e.bottleneck]
	return r.name, r.demand
}
