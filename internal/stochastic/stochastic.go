// Package stochastic implements the statistical traffic generators of the
// paper's related work (Lahiri et al. [6]): synthetic masters whose
// inter-transaction gaps follow uniform, Gaussian, Poisson or bursty on/off
// distributions. The paper's Section 2 argues such models "assume a degree
// of correlation within the communication transactions which is unlikely in
// a SoC environment"; the ablation benches quantify that claim against
// trace-driven TGs.
//
// Orthogonally to the temporal Dist, a Spatial pattern shapes *where* the
// traffic goes: the classic NoC evaluation set (uniform random, transpose,
// bit-complement, bit-reverse, hotspot, nearest-neighbour) defined over a
// logical grid of masters, with each logical destination mapped onto a
// slave address range through the platform's address map. Dist × Pattern
// spans the synthetic scenario space of internal/scenario.
//
// The Generator is an open-loop master over a source of requests: the
// drawn model above, or a recorded trace replayed at its timestamps
// (NewClone, the paper's cloning baseline).
package stochastic

import (
	"fmt"

	"math/rand"

	"noctg/internal/ocp"
	"noctg/internal/sim"
)

// Dist selects the inter-arrival distribution.
type Dist int

const (
	// Uniform draws gaps uniformly from [0, 2·MeanGap].
	Uniform Dist = iota
	// Gaussian draws gaps from N(MeanGap, StdDev²), clamped at zero.
	Gaussian
	// Poisson draws exponential gaps with mean MeanGap (a Poisson process).
	Poisson
	// Bursty alternates bursts of back-to-back transactions with long
	// off-periods, keeping the same mean rate.
	Bursty
)

func (d Dist) String() string {
	switch d {
	case Uniform:
		return "uniform"
	case Gaussian:
		return "gaussian"
	case Poisson:
		return "poisson"
	case Bursty:
		return "bursty"
	}
	return fmt.Sprintf("Dist(%d)", int(d))
}

// Config describes a stochastic master.
type Config struct {
	// Dist is the inter-arrival model.
	Dist Dist
	// MeanGap is the mean idle gap between transactions in cycles.
	MeanGap float64
	// StdDev is the Gaussian standard deviation (default MeanGap/4).
	StdDev float64
	// BurstLen is the mean burst length for Bursty (default 8).
	BurstLen int
	// ReadFraction is the probability a transaction is a read (default 0.6).
	ReadFraction float64
	// Ranges are the target address ranges, picked uniformly. Ignored
	// when Spatial is set.
	Ranges []ocp.AddrRange
	// Spatial selects a spatial destination pattern: each transaction's
	// target node comes from the pattern over the logical master grid,
	// and the address is drawn uniformly inside that node's range. The
	// generator id is its logical grid position.
	Spatial *Spatial
	// Count is the number of transactions to issue.
	Count int
	// Seed makes the generator deterministic.
	Seed int64

	// MMPP selects the Markov-modulated bursty arrival process; when set
	// it replaces Dist/MeanGap as the temporal model (see arrival.go).
	MMPP *MMPP
	// SelfSimilar selects the superposed Pareto on/off arrival process;
	// mutually exclusive with MMPP.
	SelfSimilar *SelfSimilar
}

func (c Config) withDefaults() Config {
	if c.MeanGap <= 0 {
		c.MeanGap = 10
	}
	if c.StdDev <= 0 {
		c.StdDev = c.MeanGap / 4
	}
	if c.BurstLen <= 0 {
		c.BurstLen = 8
	}
	if c.ReadFraction == 0 {
		c.ReadFraction = 0.6
	}
	if c.Count == 0 {
		c.Count = 1000
	}
	return c
}

type genState int

const (
	gIdle genState = iota // waiting for the next request's due cycle
	gBusy                 // a transaction in flight
	gLast                 // the source is exhausted: halt at the next tick
	gDone
)

// source is where an open-loop master's requests come from: a model that
// draws them (drawn) or a recorded trace (recorded, see NewClone).
type source interface {
	// due returns the cycle request n is due, given that request n-1
	// completed at cycle prev; ok is false when the source holds no
	// request n. It is called for n = 0 at construction and for each
	// later n once request n-1 completed.
	due(n int, prev uint64) (at uint64, ok bool)
	// request builds request n of master id, at the cycle it is first
	// presented.
	request(id, n int) ocp.Request
}

// Generator is an open-loop OCP master: it issues each request its
// source makes due, whatever the fabric answers. It implements
// platform.Master.
type Generator struct {
	ocp.Handshake
	src source
	// drawn is the source of a stochastic generator, held by value so that
	// New allocates no more than the generator itself.
	drawn drawn
	id    int
	state genState
	// issued counts accepted requests: the next request's index.
	issued int
	// due is the cycle the next request is due and, once it is presented,
	// the cycle it was first presented (the assert cycle): absolute
	// deadlines let the event kernel sleep through the whole gap.
	due uint64
	// acceptAt is the cycle the read in flight was accepted.
	acceptAt  uint64
	haltCycle uint64
	// Drift is the accumulated lateness (cycles) of issue against the
	// source's due cycles — the cloning failure metric. A drawn source
	// never drifts: its next due cycle lies after the completion it
	// follows.
	Drift uint64
	// Latency accumulates accept-to-response read latencies for reporting;
	// ReqLatency accumulates assert-to-response latencies (service plus
	// source queueing — the load-latency curve metric).
	Latency    *sim.Histogram
	ReqLatency *sim.Histogram
	// txns/reads count completed transactions (accepted writes + responded
	// reads) for the ocp.TrafficMeter view phased measurement aggregates
	// when no trace monitor wraps the port (open-loop curve runs).
	txns  sim.Counter
	reads sim.Counter
}

// drawn is the stochastic traffic model: Config's arrival process decides
// when, its spatial pattern (or range pick) and read/write coin decide
// what.
type drawn struct {
	cfg     Config
	rng     *rand.Rand
	sampler *Sampler // non-nil when cfg.Spatial is set
	// arrival is non-nil when an MMPP or self-similar process replaces
	// the Dist gap draw.
	arrival arrival
	// burstPos is an int32 to share a word with wbuf, which keeps the
	// Generator in its 320-byte size class.
	burstPos int32
	// wbuf is the reusable one-word write payload. Both fabrics copy the
	// payload into their own storage at accept (the ocp.MasterPort
	// contract), and request only runs after the previous request was
	// accepted, so one scratch word keeps the issue path allocation-free.
	wbuf [1]uint32
}

// New builds a stochastic master with the given id over port. With a
// spatial pattern configured, id is the generator's logical grid node and
// must lie inside the pattern grid.
func New(id int, cfg Config, port ocp.MasterPort) *Generator {
	if port == nil {
		panic("stochastic: New requires a port")
	}
	var sampler *Sampler
	if cfg.Spatial != nil {
		var err error
		if sampler, err = NewSampler(*cfg.Spatial); err != nil {
			panic(err.Error())
		}
		if id < 0 || id >= sampler.Nodes() {
			panic(fmt.Sprintf("stochastic: generator %d outside the %dx%d pattern grid",
				id, cfg.Spatial.W, cfg.Spatial.H))
		}
	} else if len(cfg.Ranges) == 0 {
		panic("stochastic: Config.Ranges must not be empty")
	}
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed + int64(id)*7919))
	g := &Generator{drawn: drawn{cfg: cfg, rng: rng, sampler: sampler, arrival: newArrival(cfg, rng)}}
	g.start(id, &g.drawn, port)
	return g
}

// start binds the generator to its source and port and schedules the
// first request.
func (g *Generator) start(id int, src source, port ocp.MasterPort) {
	g.Handshake = ocp.NewHandshake(port)
	g.src = src
	g.id = id
	g.Latency = sim.NewLatencyHistogram()
	g.ReqLatency = sim.NewLatencyHistogram()
	g.next(0)
}

// Name implements sim.Named.
func (g *Generator) Name() string {
	if _, ok := g.src.(*recorded); ok {
		return fmt.Sprintf("clone%d", g.id)
	}
	return fmt.Sprintf("stoch%d", g.id)
}

// Done reports whether all transactions have been issued and completed.
func (g *Generator) Done() bool { return g.state == gDone }

// HaltCycle returns the completion cycle.
func (g *Generator) HaltCycle() uint64 { return g.haltCycle }

// Issued returns the number of transactions issued so far.
func (g *Generator) Issued() int { return g.issued }

// Transactions implements ocp.TrafficMeter: completed transactions
// (accepted writes plus responded reads).
func (g *Generator) Transactions() uint64 { return g.txns.Value() }

// Reads implements ocp.TrafficMeter.
func (g *Generator) Reads() uint64 { return g.reads.Value() }

// LatencyHist implements ocp.TrafficMeter.
func (g *Generator) LatencyHist() *sim.Histogram { return g.Latency }

// RequestLatencyHist implements ocp.TrafficMeter.
func (g *Generator) RequestLatencyHist() *sim.Histogram { return g.ReqLatency }

// RegisterStats implements sim.StatsSource.
func (g *Generator) RegisterStats(r *sim.Registry) {
	r.RegisterCounter("transactions", &g.txns)
	r.RegisterCounter("reads", &g.reads)
	r.RegisterHistogram("latency", g.Latency)
	r.RegisterHistogram("req_latency", g.ReqLatency)
}

// due implements source: the first request is due at once, every later
// one a drawn gap after its predecessor completed.
func (m *drawn) due(n int, prev uint64) (uint64, bool) {
	if n == 0 {
		return 0, m.cfg.Count > 0
	}
	var gap uint64
	switch {
	case m.arrival != nil:
		gap = m.arrival.nextGap(m.rng)
	case m.cfg.Dist == Uniform:
		gap = uint64(m.rng.Float64() * 2 * m.cfg.MeanGap)
	case m.cfg.Dist == Gaussian:
		gap = uint64(max(m.rng.NormFloat64()*m.cfg.StdDev+m.cfg.MeanGap, 0))
	case m.cfg.Dist == Poisson:
		gap = uint64(m.rng.ExpFloat64() * m.cfg.MeanGap)
	case m.cfg.Dist == Bursty:
		// Within a burst: back-to-back. Between bursts: a gap long enough
		// to preserve the mean rate.
		if m.burstPos++; int(m.burstPos) >= m.cfg.BurstLen {
			m.burstPos = 0
			gap = uint64(m.rng.ExpFloat64() * m.cfg.MeanGap * float64(m.cfg.BurstLen))
		}
	default:
		gap = uint64(m.cfg.MeanGap)
	}
	return prev + gap + 1, n < m.cfg.Count
}

// request implements source: the spatial pattern (or the uniform range
// pick) chooses where, then a word inside that range and the read/write
// coin choose what.
func (m *drawn) request(id, _ int) ocp.Request {
	var r ocp.AddrRange
	if m.sampler != nil {
		r = m.sampler.Range(m.sampler.Dest(id, m.rng))
	} else {
		r = m.cfg.Ranges[m.rng.Intn(len(m.cfg.Ranges))]
	}
	words := r.Size / 4
	addr := r.Base + uint32(m.rng.Intn(int(words)))*4
	if m.rng.Float64() < m.cfg.ReadFraction {
		return ocp.Request{Cmd: ocp.Read, Addr: addr, Burst: 1, MasterID: id}
	}
	m.wbuf[0] = m.rng.Uint32()
	return ocp.Request{Cmd: ocp.Write, Addr: addr, Burst: 1,
		Data: m.wbuf[:], MasterID: id}
}

// next asks the source when the next request is due, after the previous
// one completed at cycle prev; the generator is idle until then.
func (g *Generator) next(prev uint64) {
	var ok bool
	if g.due, ok = g.src.due(g.issued, prev); !ok {
		g.state = gLast
	}
}

// Tick implements sim.Device.
func (g *Generator) Tick(cycle uint64) {
	switch g.state {
	case gDone:
		return
	case gLast:
		g.haltCycle = cycle
		g.state = gDone
		return
	case gIdle:
		if cycle < g.due {
			return
		}
		g.Drift += cycle - g.due
		g.due = cycle
		g.Start(g.src.request(g.id, g.issued))
		g.state = gBusy
		fallthrough
	case gBusy:
		accepted, resp, done := g.Step()
		if accepted {
			g.issued++
			g.acceptAt = cycle
		}
		if !done {
			return
		}
		if resp != nil {
			g.Latency.Observe(cycle - g.acceptAt)
			g.ReqLatency.Observe(cycle - g.due)
			g.reads.Inc()
		}
		g.txns.Inc()
		g.state = gIdle
		g.next(cycle)
	}
}

// NextWake implements sim.Sleeper: a finished generator never wakes, an
// idle one wakes at its next request's due cycle, and one mid-handshake
// sleeps until its port wakes it, or polls on a port that cannot. A
// generator whose source is exhausted asks for one more tick, in which it
// records its halt. The sleep to the due cycle is a strict "will not act
// before" promise — neither a drawn nor a recorded schedule depends on
// any response — so the event kernel may drop the generator from the tick
// loop until then.
func (g *Generator) NextWake(now uint64) uint64 {
	switch g.state {
	case gDone:
		return sim.WakeNever
	case gIdle:
		if g.due > now {
			return g.due
		}
	case gBusy:
		return g.BlockedWake(now)
	}
	return now
}

// TickWake implements sim.TickSleeper (Tick then NextWake in one dispatch).
func (g *Generator) TickWake(cycle uint64) uint64 {
	g.Tick(cycle)
	return g.NextWake(cycle + 1)
}

var _ sim.Device = (*Generator)(nil)
var _ sim.WakeSink = (*Generator)(nil)
var _ sim.StatsSource = (*Generator)(nil)
var _ ocp.TrafficMeter = (*Generator)(nil)
var _ sim.Sleeper = (*Generator)(nil)
var _ sim.TickSleeper = (*Generator)(nil)
