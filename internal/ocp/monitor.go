package ocp

import "noctg/internal/sim"

// TrafficMeter is the uniform per-master traffic-statistics view the
// measurement layer aggregates over: completed transactions, completed
// reads, and the read-latency histogram (canonical sim.LatencyBounds
// buckets). Monitors implement it at the OCP port; traffic sources that
// run without a monitor (stochastic generators in open-loop curve runs)
// implement it themselves.
type TrafficMeter interface {
	// Transactions returns completed transactions: accepted posted writes
	// plus reads whose response arrived.
	Transactions() uint64
	// Reads returns completed reads.
	Reads() uint64
	// LatencyHist returns the accept-to-response read-latency histogram
	// (the interconnect's service latency — the paper's port metric).
	LatencyHist() *sim.Histogram
	// RequestLatencyHist returns the assert-to-response read-latency
	// histogram: service latency plus the source-queueing delay spent
	// waiting for the interconnect to accept the request. This is the
	// end-to-end metric load-latency curves are built on — under
	// saturation the queueing term dominates while the service term
	// barely moves.
	RequestLatencyHist() *sim.Histogram
}

// Event is one traced OCP transaction as observed at a master interface.
// The three timestamps are what the translator needs to compute
// interconnect-independent idle gaps (see core.Translate):
//
//   - Assert: the first cycle the master presented the request,
//   - Accept: the cycle the interconnect latched it (posted writes complete
//     here from the master's point of view),
//   - Resp:   the cycle read data returned (reads only).
type Event struct {
	Cmd      Cmd
	Addr     uint32
	Burst    int
	Data     []uint32 // write payload or read response data
	MasterID int
	Assert   uint64
	Accept   uint64
	Resp     uint64 // zero for writes
	HasResp  bool
}

// Done returns the completion cycle from the master's perspective: response
// arrival for reads, acceptance for posted writes.
func (e *Event) Done() uint64 {
	if e.HasResp {
		return e.Resp
	}
	return e.Accept
}

// Monitor wraps a MasterPort and observes every transaction flowing through
// it. It always meters: the transaction and read counters and the two
// latency histograms (TrafficMeter, and the "port<i>/" registry entries)
// cost no allocation and are what every measurement reads. It records —
// keeps an event log with a private copy of each payload — only after
// Record: the log is the in-simulation equivalent of the paper's adapted
// OCP interface modules that "collect traces of OCP request and response
// communication events", and only a run whose product is that trace
// (exp.RunReference) pays for it.
//
// The wrapped port sees exactly the same call sequence either way, so a
// monitor does not perturb simulated timing (recording does cost host
// time, which is the paper's §6 trace-collection overhead experiment).
type Monitor struct {
	port   MasterPort
	now    func() uint64
	record bool
	// log holds the recorded events in chunks, every chunk full but the
	// last, so recording never re-copies an event; logged counts them.
	// Events joins the chunks once.
	log    [][]Event
	logged int

	cur       Event
	asserting bool // a request has been presented but not yet accepted
	awaiting  bool // an accepted read is awaiting its response

	// Registry-backed metrics: txns/reads count completed transactions,
	// lat observes Resp-Accept and reqLat Resp-Assert read latencies. They
	// are epoch-resettable through the stats registry.
	txns   sim.Counter
	reads  sim.Counter
	lat    *sim.Histogram
	reqLat *sim.Histogram
}

// NewMonitor wraps port, reading the current cycle from now.
func NewMonitor(port MasterPort, now func() uint64) *Monitor {
	if port == nil || now == nil {
		panic("ocp: NewMonitor requires a port and a clock source")
	}
	return &Monitor{port: port, now: now,
		lat: sim.NewLatencyHistogram(), reqLat: sim.NewLatencyHistogram()}
}

// Transactions implements TrafficMeter.
func (m *Monitor) Transactions() uint64 { return m.txns.Value() }

// Reads implements TrafficMeter.
func (m *Monitor) Reads() uint64 { return m.reads.Value() }

// LatencyHist implements TrafficMeter.
func (m *Monitor) LatencyHist() *sim.Histogram { return m.lat }

// RequestLatencyHist implements TrafficMeter.
func (m *Monitor) RequestLatencyHist() *sim.Histogram { return m.reqLat }

// RegisterStats implements sim.StatsSource.
func (m *Monitor) RegisterStats(r *sim.Registry) {
	r.RegisterCounter("transactions", &m.txns)
	r.RegisterCounter("reads", &m.reads)
	r.RegisterHistogram("latency", m.lat)
	r.RegisterHistogram("req_latency", m.reqLat)
}

// Record switches the event log on: every transaction completed from now
// on is appended to Events with its own copy of the payload. Call it before
// the run starts.
func (m *Monitor) Record() { m.record = true }

// TryRequest implements MasterPort, noting assert and accept cycles.
func (m *Monitor) TryRequest(req *Request) bool {
	if !m.asserting {
		m.cur = Event{
			Cmd:      req.Cmd,
			Addr:     req.Addr,
			Burst:    req.Burst,
			MasterID: req.MasterID,
			Assert:   m.now(),
		}
		if m.record && req.Cmd.IsWrite() {
			m.cur.Data = append([]uint32(nil), req.Data...)
		}
		m.asserting = true
	}
	ok := m.port.TryRequest(req)
	if ok {
		m.cur.Accept = m.now()
		m.asserting = false
		if req.Cmd.IsRead() {
			m.awaiting = true
		} else {
			m.complete()
		}
	}
	return ok
}

// A new log chunk holds as many events as were logged before it, clamped
// to [minChunk, maxChunk].
const (
	minChunk = 16
	maxChunk = 512
)

// complete counts the current transaction and, when recording, logs it.
// A reference run logs hundreds of thousands of events: grown by append,
// which enlarges a large slice by about a quarter and copies it each time,
// the log cost several times its own size.
func (m *Monitor) complete() {
	m.txns.Inc()
	if !m.record {
		return
	}
	if k := len(m.log) - 1; k < 0 || len(m.log[k]) == cap(m.log[k]) {
		m.log = append(m.log, make([]Event, 0, min(max(m.logged, minChunk), maxChunk)))
	}
	k := len(m.log) - 1
	m.log[k] = append(m.log[k], m.cur)
	m.logged++
}

// TakeResponse implements MasterPort, noting the response cycle (and, when
// recording, the data).
func (m *Monitor) TakeResponse() (*Response, bool) {
	resp, ok := m.port.TakeResponse()
	if ok && m.awaiting {
		m.cur.Resp = m.now()
		m.cur.HasResp = true
		if m.record {
			m.cur.Data = append([]uint32(nil), resp.Data...)
		}
		m.complete()
		m.reads.Inc()
		m.lat.Observe(m.cur.Resp - m.cur.Accept)
		m.reqLat.Observe(m.cur.Resp - m.cur.Assert)
		m.awaiting = false
	}
	return resp, ok
}

// Busy implements MasterPort.
func (m *Monitor) Busy() bool { return m.port.Busy() }

// Events returns the transactions recorded since Record, in issue order
// (nil on a monitor that only meters). The returned slice is owned by the
// monitor; callers must not modify it.
func (m *Monitor) Events() []Event {
	if len(m.log) > 1 {
		all := make([]Event, 0, m.logged)
		for _, c := range m.log {
			all = append(all, c...)
		}
		m.log = append(m.log[:0], all)
	}
	if len(m.log) == 0 {
		return nil
	}
	return m.log[0]
}

var _ MasterPort = (*Monitor)(nil)
var _ TrafficMeter = (*Monitor)(nil)
var _ sim.StatsSource = (*Monitor)(nil)
