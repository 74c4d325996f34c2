package main

import (
	"time"

	"noctg/internal/ocp"
	"noctg/internal/platform"
	"noctg/internal/sim"
)

// span is one timed call the driver made into a layer's public API.
// Start and End are seconds since the tracer was created; Parent indexes
// the enclosing span (-1 at the top). Spans are kept in memory and written
// with the result when the run ends.
type span struct {
	Name     string  `json:"name"`
	Layer    string  `json:"layer"`
	Workload string  `json:"workload"`
	Repeat   int     `json:"repeat"`
	Start    float64 `json:"start"`
	End      float64 `json:"end"`
	Parent   int     `json:"parent"`
}

// tracer records spans around the driver's own calls. A nil tracer is the
// untraced end-to-end run: every method is a no-op, so workload bodies are
// written once.
type tracer struct {
	t0       time.Time
	spans    []span
	open     []int // stack of open span indices
	workload string
	repeat   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns the function that closes it.
func (t *tracer) begin(name, layer string) func() {
	if t == nil {
		return func() {}
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Layer: layer, Workload: t.workload,
		Repeat: t.repeat, Start: time.Since(t.t0).Seconds(), Parent: parent})
	t.open = append(t.open, id)
	return func() {
		t.spans[id].End = time.Since(t.t0).Seconds()
		t.open = t.open[:len(t.open)-1]
	}
}

// child records a callee-reported duration (exp.RefResult.Wall,
// exp.TGResult.Wall: the System.Run inside the call that just returned)
// as a child of the open span, ending now.
func (t *tracer) child(name, layer string, d time.Duration) {
	if t == nil {
		return
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	end := time.Since(t.t0).Seconds()
	t.spans = append(t.spans, span{Name: name, Layer: layer, Workload: t.workload,
		Repeat: t.repeat, Start: end - d.Seconds(), End: end, Parent: parent})
}

// selfTimes returns, per span name, the summed self time (duration minus
// the part covered by child spans) of one workload repeat.
func selfTimes(spans []span, workload string, repeat int) map[string]float64 {
	covered := make(map[int]float64)
	for _, s := range spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]float64)
	for i, s := range spans {
		if s.Workload == workload && s.Repeat == repeat {
			out[s.Name] += s.End - s.Start - covered[i]
		}
	}
	return out
}

// shimSample is the sampling period of the timing shims: about 1 call in
// 64 is timed, every call is counted. The period is prime so it cannot
// lock onto one phase of a 2-, 3- or 4-tick polling loop.
const shimSample = 61

// shimStats accumulates one master's sampled tick and port-call times.
// Each master owns its stats, so a sharded run needs no synchronisation;
// totals are read after the run.
type shimStats struct {
	ticks, ticksTimed uint64
	calls, callsTimed uint64
	tickNS, callNS    int64
}

// timerCost estimates the cost of one time.Now/time.Since pair, which a
// timed sample includes and the estimate subtracts.
func timerCost() time.Duration {
	const n = 2000
	start := time.Now()
	var sink time.Duration
	for i := 0; i < n; i++ {
		sink += time.Since(time.Now())
	}
	_ = sink
	return time.Since(start) / n
}

// shimTotals are the summed estimates over all masters of one run.
type shimTotals struct {
	ticks, calls uint64
	tickS, portS float64 // estimated seconds inside Master.Tick (ports included) and inside port calls
}

func sumShims(stats []*shimStats) shimTotals {
	cost := timerCost().Seconds()
	var t shimTotals
	for _, s := range stats {
		t.ticks += s.ticks
		t.calls += s.calls
		if s.ticksTimed > 0 {
			per := float64(s.tickNS)/1e9/float64(s.ticksTimed) - cost
			if per > 0 {
				t.tickS += per * float64(s.ticks)
			}
		}
		if s.callsTimed > 0 {
			per := float64(s.callNS)/1e9/float64(s.callsTimed) - cost
			if per > 0 {
				t.portS += per * float64(s.calls)
			}
		}
	}
	return t
}

// shimMaster wraps a master in a timing shim. It forwards sim.Sleeper,
// sim.TickSleeper, HaltCycle and sim.StatsSource, so the kernel schedules
// the master exactly as it would the bare device and the stats registry
// sees the same counters.
type shimMaster struct {
	inner sleeperMaster
	st    *shimStats
}

// sleeperMaster is what the shim needs of the masters it wraps: TG
// devices and stochastic generators both provide it.
type sleeperMaster interface {
	platform.Master
	sim.Sleeper
	sim.TickSleeper
	sim.StatsSource
	HaltCycle() uint64
}

func (m *shimMaster) Tick(c uint64) {
	m.st.ticks++
	if m.st.ticks%shimSample != 0 {
		m.inner.Tick(c)
		return
	}
	t := time.Now()
	m.inner.Tick(c)
	m.st.tickNS += time.Since(t).Nanoseconds()
	m.st.ticksTimed++
}

func (m *shimMaster) TickWake(c uint64) uint64 {
	m.st.ticks++
	if m.st.ticks%shimSample != 0 {
		return m.inner.TickWake(c)
	}
	t := time.Now()
	w := m.inner.TickWake(c)
	m.st.tickNS += time.Since(t).Nanoseconds()
	m.st.ticksTimed++
	return w
}

func (m *shimMaster) NextWake(now uint64) uint64    { return m.inner.NextWake(now) }
func (m *shimMaster) Done() bool                    { return m.inner.Done() }
func (m *shimMaster) HaltCycle() uint64             { return m.inner.HaltCycle() }
func (m *shimMaster) RegisterStats(r *sim.Registry) { m.inner.RegisterStats(r) }

// shimPort wraps a master's OCP port, timing a sample of its calls and forwarding
// ocp.WakeHinter so a blocked master sleeps to the same horizon.
type shimPort struct {
	inner  ocp.MasterPort
	hinter ocp.WakeHinter
	st     *shimStats
}

func newShimPort(p ocp.MasterPort, st *shimStats) *shimPort {
	sp := &shimPort{inner: p, st: st}
	sp.hinter, _ = p.(ocp.WakeHinter)
	return sp
}

func (p *shimPort) timed() bool {
	p.st.calls++
	return p.st.calls%shimSample == 0
}

func (p *shimPort) done(t time.Time) {
	p.st.callNS += time.Since(t).Nanoseconds()
	p.st.callsTimed++
}

func (p *shimPort) TryRequest(req *ocp.Request) bool {
	if !p.timed() {
		return p.inner.TryRequest(req)
	}
	t := time.Now()
	ok := p.inner.TryRequest(req)
	p.done(t)
	return ok
}

func (p *shimPort) TakeResponse() (*ocp.Response, bool) {
	if !p.timed() {
		return p.inner.TakeResponse()
	}
	t := time.Now()
	resp, ok := p.inner.TakeResponse()
	p.done(t)
	return resp, ok
}

func (p *shimPort) Busy() bool {
	if !p.timed() {
		return p.inner.Busy()
	}
	t := time.Now()
	b := p.inner.Busy()
	p.done(t)
	return b
}

// WakeHint forwards the port's stall horizon; a port that cannot bound
// one must answer now (see ocp.WakeHinter).
func (p *shimPort) WakeHint(now uint64) uint64 {
	if p.hinter == nil {
		return now
	}
	return p.hinter.WakeHint(now)
}

// shimFactory wraps a master factory: every master it builds sits behind a
// shimPort and inside a shimMaster. The returned slice fills as the
// platform is built.
func shimFactory(build func(s *platform.System, id int, port ocp.MasterPort) sleeperMaster) (platform.MasterFactory, *[]*shimStats) {
	var all []*shimStats
	return func(s *platform.System, id int, port ocp.MasterPort) platform.Master {
		st := &shimStats{}
		all = append(all, st)
		return &shimMaster{inner: build(s, id, newShimPort(port, st)), st: st}
	}, &all
}

// shares turns shim totals into the three shares of a run's wall time:
// master tick (ports excluded), port calls, and the remainder — fabric
// plus engine.
func (t shimTotals) shares(runS float64) (master, port, fabric float64) {
	if runS <= 0 {
		return 0, 0, 0
	}
	port = t.portS / runS
	master = (t.tickS - t.portS) / runS
	if master < 0 {
		master = 0
	}
	fabric = 1 - master - port
	if fabric < 0 {
		fabric = 0
	}
	return master, port, fabric
}
