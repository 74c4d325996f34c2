package stochastic

import (
	"noctg/internal/ocp"
)

// recorded is the source of a cloning replay: each event of a trace is
// due at its recorded assert cycle.
type recorded struct {
	events []ocp.Event
	// buf is the reusable write payload: the interconnect copies it no
	// later than acceptance (see ocp.MasterPort).
	buf []uint32
}

// NewClone builds the "cloning" baseline master the paper's Section 3
// argues against: it replays a recorded trace at its absolute timestamps
// ("a trace with timestamps can be collected in the reference system and
// then be independently replayed"), issuing each event at its recorded
// assert cycle or as soon after as the port allows, and ignoring every
// response. On an interconnect slower than the traced one it falls
// behind its schedule (Drift) and ignores all causality: a poll that
// failed in the reference is replayed the recorded number of times,
// whatever the semaphore now answers. The other Section 3 baseline, the
// time-shifting generator, is the translator with poll recognition
// disabled (core.TranslateConfig.RecognizePolls = false): it ties
// transactions to previous responses but replays the recorded polls
// verbatim. Comparing both against the reactive TG on an interconnect
// other than the traced one reproduces the paper's motivation
// quantitatively.
func NewClone(id int, events []ocp.Event, port ocp.MasterPort) *Generator {
	if port == nil {
		panic("stochastic: NewClone requires a port")
	}
	g := &Generator{}
	g.start(id, &recorded{events: events}, port)
	return g
}

// due implements source.
func (r *recorded) due(n int, _ uint64) (uint64, bool) {
	if n >= len(r.events) {
		return 0, false
	}
	return r.events[n].Assert, true
}

// request implements source.
func (r *recorded) request(id, n int) ocp.Request {
	e := &r.events[n]
	req := ocp.Request{Cmd: e.Cmd, Addr: e.Addr, Burst: e.Burst, MasterID: id}
	if e.Cmd.IsWrite() {
		r.buf = append(r.buf[:0], e.Data...)
		req.Data = r.buf
	}
	return req
}
