// Package amba models an AMBA AHB-style shared bus at cycle granularity:
// request→grant arbitration, a one-cycle address phase, per-beat data phases
// extended by slave wait states, posted writes and blocking reads. It is the
// reference interconnect of the paper's Table 2 evaluation.
//
// Timing model (all parameters in Config):
//
//	cycle t   : master asserts a request on its port (TryRequest → false)
//	cycle t   : the bus, ticked after all masters, arbitrates and grants
//	cycle t+1 : the master's TryRequest returns true (request accepted);
//	            the bus is occupied for AddrCycles + Burst·BeatCycles +
//	            slave access cycles
//	done      : the slave performs the access; for reads the response is
//	            delivered RespCycles later
//
// Contention appears exactly as in the paper: while the bus is occupied or
// arbitration favours another master, requesters idle-wait, and at high core
// counts the bus saturates.
package amba

import (
	"fmt"
	"math/bits"

	"noctg/internal/ocp"
	"noctg/internal/sim"
)

// Policy selects the arbitration algorithm.
type Policy int

const (
	// RoundRobin rotates priority fairly among masters (default).
	RoundRobin Policy = iota
	// FixedPriority always favours the lowest-numbered requesting master.
	FixedPriority
	// TDMA grants the bus in fixed time slots of SlotCycles per master,
	// giving hard bandwidth isolation at the cost of idle slots.
	TDMA
)

func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case FixedPriority:
		return "fixed-priority"
	case TDMA:
		return "tdma"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Config holds the bus timing parameters. The zero value is replaced by
// DefaultConfig.
type Config struct {
	Arbitration Policy
	// AddrCycles is the address-phase length (AHB: 1).
	AddrCycles uint64
	// BeatCycles is the zero-wait-state data-phase length per beat (AHB: 1).
	BeatCycles uint64
	// RespCycles is the read-data return latency after the final beat.
	RespCycles uint64
	// SlotCycles is the TDMA slot length (default 16; TDMA only).
	SlotCycles uint64
}

// DefaultConfig is the single-cycle-phase AHB configuration.
var DefaultConfig = Config{Arbitration: RoundRobin, AddrCycles: 1, BeatCycles: 1, RespCycles: 1}

func (c Config) withDefaults() Config {
	if c.AddrCycles == 0 {
		c.AddrCycles = DefaultConfig.AddrCycles
	}
	if c.BeatCycles == 0 {
		c.BeatCycles = DefaultConfig.BeatCycles
	}
	if c.RespCycles == 0 {
		c.RespCycles = DefaultConfig.RespCycles
	}
	if c.SlotCycles == 0 {
		c.SlotCycles = 16
	}
	return c
}

type binding struct {
	rng   ocp.AddrRange
	slave ocp.Slave
}

type portState int

const (
	portIdle portState = iota
	portRequesting
	portGranted
)

// port is the bus's implementation of ocp.MasterPort.
type port struct {
	bus   *Bus
	id    int
	state portState
	req   ocp.Request

	busyRead bool
	resp     ocp.Response
	respAt   uint64
	hasResp  bool
	// respBuf is the port-owned read-data buffer reused across
	// transactions: each port has at most one outstanding read, so the
	// previous response is always consumed before the buffer is refilled.
	respBuf []uint32
	waker   sim.Waker // the master's wake handle; nil outside an engine
	// since is, while the port requests, the first cycle not yet credited
	// to its WaitCycles: the grant credits the cycles from there to the
	// grant's, so a wait costs no bus work per cycle. TryRequest stamps it
	// with the current cycle, which counts that cycle as waited: right
	// only because the bus is ticked after its masters (see Bus), so it
	// arbitrates in the cycle a request is presented. A master ticked
	// after the bus would be counted one cycle more per request than a
	// per-cycle count (TestBusSleepsThroughShortTransfers pins that order).
	since uint64
	// lastBind caches the binding this port's latest request decoded to:
	// each master shows strong address-range locality, so the common case
	// skips the linear range scan whose cost grows with the core count
	// (one private memory each), whichever masters interleave on the bus.
	lastBind int
}

// SetWaker implements sim.WakeSink for the master's handle (ocp.PassWaker).
func (p *port) SetWaker(w sim.Waker) { p.waker = w }

// TryRequest implements ocp.MasterPort.
func (p *port) TryRequest(req *ocp.Request) bool {
	switch p.state {
	case portIdle:
		if p.busyRead {
			return false // previous read still outstanding
		}
		if err := req.Validate(); err != nil {
			panic(fmt.Sprintf("amba: master %d issued invalid request: %v", p.id, err))
		}
		p.req = *req
		p.req.MasterID = p.id
		p.since = p.bus.now()
		p.state = portRequesting
		p.bus.requesting++
		p.bus.openPorts++
		p.bus.reqMask[p.id>>6] |= 1 << (uint(p.id) & 63)
		// A new request ends an idle bus's sleep: tell the event kernel to
		// put the bus back into the tick set. A bus sleeping through a
		// transfer sleeps on: it arbitrates at the transfer's completion
		// anyway, and the request's wait is credited at its grant.
		if w := p.bus.waker; w != nil && !p.bus.hasActive {
			w.Wake()
		}
		return false
	case portRequesting:
		return false
	case portGranted:
		p.state = portIdle
		if p.req.Cmd.IsRead() {
			p.busyRead = true
		} else {
			p.bus.openPorts--
		}
		return true
	}
	return false
}

// TakeResponse implements ocp.MasterPort. The returned response is backed
// by port-owned storage that the next transaction reuses (see the
// ocp.MasterPort contract).
func (p *port) TakeResponse() (*ocp.Response, bool) {
	if !p.hasResp || p.bus.now() < p.respAt {
		return nil, false
	}
	p.hasResp = false
	p.busyRead = false
	p.bus.openPorts--
	return &p.resp, true
}

// Busy implements ocp.MasterPort.
func (p *port) Busy() bool { return p.busyRead || p.state != portIdle }

var _ ocp.MasterPort = (*port)(nil)

type activeTxn struct {
	port *port
	req  ocp.Request
	bind *binding
	done uint64
}

// Bus is the AHB-style interconnect. It implements sim.Device and must be
// ticked after all masters each cycle: its grant timing and its wait
// accounting (see port.since) both assume that order.
type Bus struct {
	cfg      Config
	now      func() uint64
	ports    []*port
	bindings []binding
	rrNext   int

	// active is the single in-flight transaction, reused across grants so
	// the arbitration hot path performs no allocation. activeData holds a
	// bus-owned copy of the write payload, taken at grant time so masters
	// may reuse their request buffers as soon as a request is accepted.
	active     activeTxn
	hasActive  bool
	activeData []uint32

	// counted is the first cycle not yet credited to the busy/idle
	// counters. It supports the event kernel's elided ticks: the cycles
	// from counted to the next Tick, those before the first Tick included,
	// are credited in bulk (a cycle the bus was not ticked in is, by the
	// Sleeper contract, one in which its occupancy state could not
	// change).
	counted uint64

	// waker is the engine's wake handle (sim.WakeSink); nil when the bus is
	// driven outside an engine.
	waker sim.Waker

	// Stats — all sim.Counter so one RegisterStats call puts the whole set
	// under the platform's stats registry (epoch Reset/Snapshot at phase
	// boundaries); the hot paths stay plain integer adds.
	decodeErrors sim.Counter
	slaveErrors  sim.Counter
	// waits counts, per master, the cycles spent requesting without a
	// grant. It is credited at the grant (see port.since); the WaitCycles
	// getter and syncStats settle the cycles of requests still waiting, so
	// readers always see the strict kernel's per-cycle values.
	waits      []sim.Counter
	Grants     []sim.Counter // per master: accepted transactions
	busyCycles sim.Counter
	idleCycles sim.Counter
	grantCount sim.Counter
	requesting int // number of ports in portRequesting state
	// openPorts counts ports with any business in flight (requesting,
	// granted-but-unaccepted, outstanding read or undelivered response), so
	// Idle is O(1) instead of a port scan.
	openPorts int
	// reqMask mirrors the portRequesting states, one bit per port id, so
	// arbitration and wait settlement scan requesters instead of every
	// port: cost scales with contention, not with the core count.
	reqMask []uint64
}

// New builds a bus with the given timing configuration; now supplies the
// current engine cycle (typically engine.Cycle).
func New(cfg Config, now func() uint64) *Bus {
	if now == nil {
		panic("amba: New requires a cycle source")
	}
	return &Bus{cfg: cfg.withDefaults(), now: now}
}

// NewMasterPort allocates the next master port. Ports are numbered in
// creation order; with FixedPriority, lower numbers win arbitration.
func (b *Bus) NewMasterPort() ocp.MasterPort {
	p := &port{bus: b, id: len(b.ports)}
	b.ports = append(b.ports, p)
	b.waits = append(b.waits, 0)
	b.Grants = append(b.Grants, 0)
	if len(b.ports) > 64*len(b.reqMask) {
		b.reqMask = append(b.reqMask, 0)
	}
	return p
}

// MapSlave binds slave at rng. Overlapping ranges are rejected.
func (b *Bus) MapSlave(slave ocp.Slave, rng ocp.AddrRange) error {
	for _, bd := range b.bindings {
		if bd.rng.Overlaps(rng) {
			return fmt.Errorf("amba: range %v overlaps existing %v", rng, bd.rng)
		}
	}
	b.bindings = append(b.bindings, binding{rng: rng, slave: slave})
	return nil
}

// BusyCycles returns how many cycles the bus spent occupied by a transfer.
func (b *Bus) BusyCycles() uint64 {
	busy, _ := b.gap(b.now())
	return b.busyCycles.Value() + busy
}

// IdleCycles returns how many cycles the bus had no requester.
func (b *Bus) IdleCycles() uint64 {
	_, idle := b.gap(b.now())
	return b.idleCycles.Value() + idle
}

// gap returns the busy/idle credit for the cycles from counted up to, not
// including, end, in which the bus was not ticked (event-kernel jumps and
// sleeps, the cycles before its first tick). Tick folds such
// gaps into the counters itself, but a run that ends inside a gap is never
// followed by another Tick, so the getters account the tail on the fly
// (the bus state was frozen across the gap, making the attribution
// unambiguous).
func (b *Bus) gap(end uint64) (busy, idle uint64) {
	switch {
	case end <= b.counted:
		return 0, 0
	case b.hasActive:
		return end - b.counted, 0
	}
	return 0, end - b.counted
}

// TotalGrants returns the number of accepted transactions.
func (b *Bus) TotalGrants() uint64 { return b.grantCount.Value() }

// Idle reports whether no transfer is active, no master is requesting and
// no response is pending — i.e. all posted writes have drained. Platforms
// use this as part of their termination condition; the open-port counter
// makes it O(1), so per-cycle callers (NextWake, completion predicates)
// don't pay a port scan.
func (b *Bus) Idle() bool {
	return !b.hasActive && b.openPorts == 0
}

// NextWake implements sim.Sleeper. A transfer in flight sleeps the bus to
// its completion cycle, however short, even while other masters queue
// behind it or join the queue: nothing can be granted before the bus
// frees, the cycles in between change no bus state, and each waiter's
// WaitCycles are credited at its grant (see port.since). With no transfer, a
// requesting master needs per-cycle arbitration ticks (TDMA slots are
// cycle-timed); otherwise the bus is quiescent until a master presents a
// request, even while a port holds a response or an accept its master has
// yet to take, because taking either is the port's business alone. That
// idle sleep is ended early by the port's TryRequest wake hook, which is
// what makes it a safe promise rather than a mere hint (see sim.Sleeper).
func (b *Bus) NextWake(now uint64) uint64 {
	switch {
	case b.hasActive:
		return max(b.active.done, now)
	case b.requesting > 0:
		return now
	}
	return sim.WakeNever
}

// SetWaker implements sim.WakeSink: the engine hands the bus its wake
// handle at registration, and the ports fire it when a master's TryRequest
// arrives while the bus may be sleeping.
func (b *Bus) SetWaker(w sim.Waker) { b.waker = w }

// RegisterStats implements sim.StatsSource: the full counter set —
// occupancy, total and per-master grants, per-master wait cycles, decode
// and slave errors — joins the registry so phased measurement can reset
// and snapshot it at epoch boundaries. Call after every NewMasterPort
// (registration captures counter addresses).
func (b *Bus) RegisterStats(r *sim.Registry) {
	r.RegisterCounter("busy_cycles", &b.busyCycles)
	r.RegisterCounter("idle_cycles", &b.idleCycles)
	r.RegisterCounter("grants", &b.grantCount)
	r.RegisterCounter("decode_errors", &b.decodeErrors)
	r.RegisterCounter("slave_errors", &b.slaveErrors)
	for i := range b.ports {
		r.RegisterCounter(fmt.Sprintf("wait_cycles/%d", i), &b.waits[i])
		r.RegisterCounter(fmt.Sprintf("grants/%d", i), &b.Grants[i])
	}
	r.OnSync(b.syncStats)
}

// syncStats folds the lazily credited busy/idle gap and wait-cycle tail
// into the counters through cycle now-1, so a phase-boundary snapshot or
// reset attributes every cycle to the epoch it belongs to. Advancing
// counted here is safe: the next Tick's gap credit starts from the new
// value, so no cycle is counted twice.
func (b *Bus) syncStats(now uint64) {
	if now > b.counted {
		busy, idle := b.gap(now)
		b.busyCycles.Add(busy)
		b.idleCycles.Add(idle)
		b.counted = now
	}
	b.settleWaits(now)
}

var _ sim.StatsSource = (*Bus)(nil)

func (b *Bus) decode(p *port, addr uint32) *binding {
	if p.lastBind < len(b.bindings) && b.bindings[p.lastBind].rng.Contains(addr) {
		return &b.bindings[p.lastBind]
	}
	for i := range b.bindings {
		if b.bindings[i].rng.Contains(addr) {
			p.lastBind = i
			return &b.bindings[i]
		}
	}
	return nil
}

// Tick implements sim.Device.
func (b *Bus) Tick(cycle uint64) {
	// Credit elided cycles (event-kernel jumps and sleeps) to the
	// occupancy counters: a tick is only omitted while the bus state is
	// frozen, so the whole gap was uniformly busy (posted-write drain) or
	// uniformly idle.
	if cycle > b.counted {
		busy, idle := b.gap(cycle)
		b.busyCycles.Add(busy)
		b.idleCycles.Add(idle)
	}
	b.counted = cycle + 1

	if b.hasActive {
		b.busyCycles.Inc()
		if cycle >= b.active.done {
			b.complete(cycle)
		}
	}
	if !b.hasActive {
		if b.requesting > 0 {
			b.arbitrate(cycle)
		} else {
			b.idleCycles.Inc()
		}
	}
}

// settleWaits credits every requesting port's WaitCycles through cycle
// now-1, the cycles it requested without a grant so far.
func (b *Bus) settleWaits(now uint64) {
	for wi, w := range b.reqMask {
		for w != 0 {
			p := b.ports[wi<<6+bits.TrailingZeros64(w)]
			b.waits[p.id].Add(now - p.since)
			p.since = now
			w &= w - 1
		}
	}
}

// WaitCycles returns, per master, the cycles spent requesting without a
// grant — exactly the strict kernel's per-cycle counts. It settles the
// requests still waiting on the fly, so a run that ended with masters
// queued has their cycles folded in.
func (b *Bus) WaitCycles() []uint64 {
	b.settleWaits(b.now())
	out := make([]uint64, len(b.waits))
	for i := range b.waits {
		out[i] = b.waits[i].Value()
	}
	return out
}

// scanReq returns the lowest requesting port id in [lo, hi), or -1.
func (b *Bus) scanReq(lo, hi int) int {
	if lo >= hi {
		return -1
	}
	for wi := lo >> 6; wi <= (hi-1)>>6; wi++ {
		w := b.reqMask[wi]
		if wi == lo>>6 {
			w &= ^uint64(0) << (uint(lo) & 63)
		}
		if w == 0 {
			continue
		}
		if id := wi<<6 + bits.TrailingZeros64(w); id < hi {
			return id
		}
		return -1
	}
	return -1
}

func (b *Bus) complete(cycle uint64) {
	t := &b.active
	b.hasActive = false
	var resp ocp.Response
	if t.bind == nil {
		resp = ocp.Response{Err: true}
		b.decodeErrors.Inc()
	} else {
		resp, t.port.respBuf = ocp.PerformBuffered(t.bind.slave, &t.req, t.port.respBuf)
		if resp.Err {
			b.slaveErrors.Inc()
		}
	}
	if t.req.Cmd.IsRead() {
		t.port.resp = resp
		t.port.respAt = cycle + b.cfg.RespCycles
		t.port.hasResp = true
		if w := t.port.waker; w != nil {
			w.WakeAt(t.port.respAt)
		}
	}
}

func (b *Bus) arbitrate(cycle uint64) {
	winner := -1
	switch b.cfg.Arbitration {
	case FixedPriority:
		winner = b.scanReq(0, len(b.ports))
	case TDMA:
		// Only the slot owner may be granted; others wait for their slot.
		owner := int(cycle/b.cfg.SlotCycles) % len(b.ports)
		if b.ports[owner].state == portRequesting {
			winner = owner
		}
	default: // RoundRobin
		n := len(b.ports)
		if winner = b.scanReq(b.rrNext, n); winner < 0 {
			winner = b.scanReq(0, b.rrNext)
		}
		if winner >= 0 {
			b.rrNext = (winner + 1) % n
		}
	}
	if winner < 0 {
		b.idleCycles.Inc()
		return
	}
	p := b.ports[winner]
	// The cycles from the request's stamp to this one, excluded, are its
	// wait: exact when the masters tick before the bus (see port.since).
	b.waits[winner].Add(cycle - p.since)
	p.state = portGranted
	if p.waker != nil {
		p.waker.WakeAt(cycle + 1) // the master's TryRequest is accepted next cycle
	}
	b.requesting--
	b.reqMask[winner>>6] &^= 1 << (uint(winner) & 63)
	b.Grants[winner]++
	b.grantCount++

	// Latch the transaction into the bus-owned slot, copying the write
	// payload: from here on the master may reuse its request buffer.
	b.active.port = p
	b.active.req = p.req
	if len(p.req.Data) > 0 {
		b.activeData = append(b.activeData[:0], p.req.Data...)
		b.active.req.Data = b.activeData
	}
	bind := b.decode(p, b.active.req.Addr)
	b.active.bind = bind
	var access uint64
	if bind != nil {
		access = bind.slave.AccessCycles(&b.active.req)
	}
	occupancy := b.cfg.AddrCycles + uint64(b.active.req.Burst)*b.cfg.BeatCycles + access
	b.active.done = cycle + occupancy
	b.hasActive = true
}

// TickWake implements sim.TickSleeper (Tick then NextWake in one dispatch).
func (b *Bus) TickWake(cycle uint64) uint64 {
	b.Tick(cycle)
	return b.NextWake(cycle + 1)
}

var _ sim.Device = (*Bus)(nil)
var _ sim.Sleeper = (*Bus)(nil)
var _ sim.WakeSink = (*Bus)(nil)
var _ sim.TickSleeper = (*Bus)(nil)
