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
	gIdle genState = iota
	gIssue
	gResp
	gDone
)

// Generator is a stochastic OCP master. It implements platform.Master.
type Generator struct {
	cfg     Config
	rng     *rand.Rand
	port    ocp.MasterPort
	sleeps  bool // the port wakes the blocked generator (see core.Device)
	id      int
	sampler *Sampler // non-nil when cfg.Spatial is set

	// arrival is non-nil when an MMPP or self-similar process replaces
	// the Dist gap draw.
	arrival arrival

	issued int
	// wakeAt is the absolute cycle at which the next transaction is built
	// and presented; absolute deadlines let the skip kernel jump the whole
	// inter-transaction gap.
	wakeAt   uint64
	burstPos int
	state    genState
	req      ocp.Request
	reqStart uint64
	// wbuf is the reusable one-word write payload. Both fabrics copy the
	// payload into their own storage at accept (the ocp.MasterPort
	// contract), and nextRequest only runs after the previous request was
	// accepted, so one scratch word keeps the issue path allocation-free.
	wbuf [1]uint32
	// assertAt is the cycle the current request was first presented,
	// anchoring the assert-to-response ReqLatency samples.
	assertAt uint64

	halted    bool
	haltCycle uint64
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
	g := &Generator{
		cfg:        cfg,
		rng:        rand.New(rand.NewSource(cfg.Seed + int64(id)*7919)),
		port:       port,
		id:         id,
		sampler:    sampler,
		Latency:    sim.NewLatencyHistogram(),
		ReqLatency: sim.NewLatencyHistogram(),
	}
	g.arrival = newArrival(cfg, g.rng)
	return g
}

// Name implements sim.Named.
func (g *Generator) Name() string { return fmt.Sprintf("stoch%d", g.id) }

// Done reports whether all transactions have been issued and completed.
func (g *Generator) Done() bool { return g.halted }

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

// nextGap draws the next inter-transaction gap.
func (g *Generator) nextGap() uint64 {
	if g.arrival != nil {
		return g.arrival.nextGap(g.rng)
	}
	switch g.cfg.Dist {
	case Uniform:
		return uint64(g.rng.Float64() * 2 * g.cfg.MeanGap)
	case Gaussian:
		v := g.rng.NormFloat64()*g.cfg.StdDev + g.cfg.MeanGap
		if v < 0 {
			v = 0
		}
		return uint64(v)
	case Poisson:
		return uint64(g.rng.ExpFloat64() * g.cfg.MeanGap)
	case Bursty:
		// Within a burst: back-to-back. Between bursts: a gap long enough
		// to preserve the mean rate.
		g.burstPos++
		if g.burstPos < g.cfg.BurstLen {
			return 0
		}
		g.burstPos = 0
		return uint64(g.rng.ExpFloat64() * g.cfg.MeanGap * float64(g.cfg.BurstLen))
	}
	return uint64(g.cfg.MeanGap)
}

// nextRequest draws the next transaction: the spatial pattern (or the
// uniform range pick) chooses where, then a word inside that range and the
// read/write coin choose what.
func (g *Generator) nextRequest() ocp.Request {
	var r ocp.AddrRange
	if g.sampler != nil {
		r = g.sampler.Range(g.sampler.Dest(g.id, g.rng))
	} else {
		r = g.cfg.Ranges[g.rng.Intn(len(g.cfg.Ranges))]
	}
	words := r.Size / 4
	addr := r.Base + uint32(g.rng.Intn(int(words)))*4
	if g.rng.Float64() < g.cfg.ReadFraction {
		return ocp.Request{Cmd: ocp.Read, Addr: addr, Burst: 1, MasterID: g.id}
	}
	g.wbuf[0] = g.rng.Uint32()
	return ocp.Request{Cmd: ocp.Write, Addr: addr, Burst: 1,
		Data: g.wbuf[:], MasterID: g.id}
}

// Tick implements sim.Device.
func (g *Generator) Tick(cycle uint64) {
	switch g.state {
	case gDone:
		return
	case gIdle:
		if g.issued >= g.cfg.Count {
			g.halted = true
			g.haltCycle = cycle
			g.state = gDone
			return
		}
		if cycle < g.wakeAt {
			return
		}
		g.req = g.nextRequest()
		g.assertAt = cycle
		g.state = gIssue
		fallthrough
	case gIssue:
		if g.port.TryRequest(&g.req) {
			g.issued++
			if g.req.Cmd.IsRead() {
				g.reqStart = cycle
				g.state = gResp
			} else {
				g.txns.Inc()
				g.wakeAt = cycle + g.nextGap() + 1
				g.state = gIdle
			}
		}
	case gResp:
		if _, ok := g.port.TakeResponse(); ok {
			g.Latency.Observe(cycle - g.reqStart)
			g.ReqLatency.Observe(cycle - g.assertAt)
			g.txns.Inc()
			g.reads.Inc()
			g.wakeAt = cycle + g.nextGap() + 1
			g.state = gIdle
		}
	}
}

// NextWake implements sim.Sleeper: a finished generator never wakes, an
// idle one wakes at its next scheduled injection, and one mid-handshake
// sleeps until its port wakes it, or polls on a port that cannot. A
// generator that has issued its full count
// also asks for one more tick, in which it records its halt. The
// inter-injection sleep is a strict "will not act before" promise — the
// schedule is drawn up front and no external input can advance it — so the
// event kernel may drop the generator from the tick loop until wakeAt.
func (g *Generator) NextWake(now uint64) uint64 {
	switch g.state {
	case gDone:
		return sim.WakeNever
	case gIdle:
		if g.issued < g.cfg.Count && g.wakeAt > now {
			return g.wakeAt
		}
	case gIssue, gResp:
		if g.sleeps {
			return sim.WakeNever
		}
	}
	return now
}

// TickWake implements sim.TickSleeper (Tick then NextWake in one dispatch).
func (g *Generator) TickWake(cycle uint64) uint64 {
	g.Tick(cycle)
	return g.NextWake(cycle + 1)
}

// SetWaker implements sim.WakeSink like core.Device.SetWaker.
func (g *Generator) SetWaker(w sim.Waker) { g.sleeps = ocp.PassWaker(g.port, w) }

var _ sim.Device = (*Generator)(nil)
var _ sim.WakeSink = (*Generator)(nil)
var _ sim.StatsSource = (*Generator)(nil)
var _ ocp.TrafficMeter = (*Generator)(nil)
var _ sim.Sleeper = (*Generator)(nil)
var _ sim.TickSleeper = (*Generator)(nil)
