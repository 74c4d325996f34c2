// Package replay provides the two non-reactive baseline generators the
// paper's Section 3 argues against:
//
//   - Clone replays a recorded trace at its absolute timestamps
//     ("cloning": "a trace with timestamps can be collected in the
//     reference system and then be independently replayed"), drifting when
//     the new interconnect is slower and ignoring all causality;
//   - the time-shifting generator is the translator with poll recognition
//     disabled (core.TranslateConfig.RecognizePolls = false), which ties
//     transactions to previous responses but replays the recorded number
//     of polling accesses verbatim.
//
// Comparing these against the reactive TG on an interconnect different
// from the traced one reproduces the paper's motivation quantitatively.
package replay

import (
	"fmt"

	"noctg/internal/ocp"
	"noctg/internal/sim"
)

type cloneState int

const (
	cWait cloneState = iota
	cIssue
	cResp
	cDone
)

// Clone is the "cloning" baseline master. It issues each recorded event at
// its recorded assert cycle (or as soon after as the port allows) and makes
// no decisions based on responses.
type Clone struct {
	events []ocp.Event
	port   ocp.MasterPort
	sleeps bool // the port wakes the blocked clone (see core.Device)
	id     int

	i       int
	state   cloneState
	req     ocp.Request
	dataBuf []uint32

	halted    bool
	haltCycle uint64
	// Drift is the accumulated lateness (cycles) of command issue versus
	// the recorded schedule — the cloning failure metric.
	Drift uint64
	// Transactions counts issued OCP commands (registry-registerable so
	// phased measurement can reset it at epoch boundaries).
	Transactions sim.Counter
}

// NewClone builds a cloning replayer for a recorded event stream.
func NewClone(id int, events []ocp.Event, port ocp.MasterPort) *Clone {
	if port == nil {
		panic("replay: NewClone requires a port")
	}
	return &Clone{events: events, port: port, id: id}
}

// Name implements sim.Named.
func (c *Clone) Name() string { return fmt.Sprintf("clone%d", c.id) }

// RegisterStats implements sim.StatsSource.
func (c *Clone) RegisterStats(r *sim.Registry) {
	r.RegisterCounter("transactions", &c.Transactions)
}

// Done reports whether the replay finished.
func (c *Clone) Done() bool { return c.halted }

// HaltCycle returns the completion cycle.
func (c *Clone) HaltCycle() uint64 { return c.haltCycle }

// Tick implements sim.Device.
func (c *Clone) Tick(cycle uint64) {
	switch c.state {
	case cDone:
		return
	case cWait:
		if c.i >= len(c.events) {
			c.halted = true
			c.haltCycle = cycle
			c.state = cDone
			return
		}
		e := &c.events[c.i]
		if cycle < e.Assert {
			return
		}
		if cycle > e.Assert {
			c.Drift += cycle - e.Assert
		}
		c.req = ocp.Request{Cmd: e.Cmd, Addr: e.Addr, Burst: e.Burst, MasterID: c.id}
		if e.Cmd.IsWrite() {
			// Reuse the payload buffer: the interconnect copies it no later
			// than acceptance (see ocp.MasterPort).
			c.dataBuf = append(c.dataBuf[:0], e.Data...)
			c.req.Data = c.dataBuf
		}
		c.state = cIssue
		fallthrough
	case cIssue:
		if c.port.TryRequest(&c.req) {
			c.Transactions++
			if c.req.Cmd.IsRead() {
				c.state = cResp
			} else {
				c.i++
				c.state = cWait
			}
		}
	case cResp:
		if _, ok := c.port.TakeResponse(); ok {
			// Response data is ignored: cloning has no reactivity.
			c.i++
			c.state = cWait
		}
	}
}

// NextWake implements sim.Sleeper: between transactions the clone sleeps
// until the next event's recorded assert cycle; mid-handshake it sleeps
// until its port wakes it, or polls on a port that cannot. The recorded
// schedule is fixed and responses are ignored, so the sleep is a strict
// "will not act before" promise and the event kernel may omit every tick
// until the assert cycle.
func (c *Clone) NextWake(now uint64) uint64 {
	switch c.state {
	case cDone:
		return sim.WakeNever
	case cWait:
		if c.i < len(c.events) {
			if at := c.events[c.i].Assert; at > now {
				return at
			}
		}
	case cIssue, cResp:
		if c.sleeps {
			return sim.WakeNever
		}
	}
	return now
}

// TickWake implements sim.TickSleeper (Tick then NextWake in one dispatch).
func (c *Clone) TickWake(cycle uint64) uint64 {
	c.Tick(cycle)
	return c.NextWake(cycle + 1)
}

// SetWaker implements sim.WakeSink like core.Device.SetWaker.
func (c *Clone) SetWaker(w sim.Waker) { c.sleeps = ocp.PassWaker(c.port, w) }

var _ sim.Device = (*Clone)(nil)
var _ sim.Sleeper = (*Clone)(nil)
var _ sim.TickSleeper = (*Clone)(nil)
var _ sim.WakeSink = (*Clone)(nil)
