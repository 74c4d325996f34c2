package noc

import (
	"fmt"

	"noctg/internal/ocp"
	"noctg/internal/sim"
)

type masterNIState int

const (
	niIdle masterNIState = iota
	niInjecting
	niInjected
)

// masterNI packetises OCP transactions from one master and reassembles the
// responses. It implements ocp.MasterPort. A request is "accepted" once its
// tail flit has entered the local router — so acceptance latency reflects
// local congestion, as on a real NI.
type masterNI struct {
	net  *Network
	node int
	r    *router // the node's router, whose local port this NI feeds
	// st is the pool/stats domain charged for this NI's packets (the
	// network's own, or its region's after Partition); now is the cycle
	// source (the shard engine's after Partition + BindCycleSource); rg is
	// the owning region, nil on an unpartitioned network.
	st  *shardState
	now func() uint64
	rg  *Region

	// busy mirrors !idle() as last reported to st.busyNIs (see noteBusy).
	busy bool

	state    masterNIState
	req      ocp.Request
	pkt      *packet
	nextFlit int

	busyRead bool
	resp     ocp.Response
	respAt   uint64
	hasResp  bool
	// rxFlits counts response flits of a partially received packet.
	rxFlits int
	// respData is the NI-owned copy of the latest read response payload:
	// each master has at most one outstanding read, so one reusable buffer
	// per NI suffices and the response packet can be recycled on arrival.
	respData []uint32

	// reqStart is the cycle the current read was latched for injection;
	// lat records latch-to-delivery read latency per NI — the network's
	// own view of transaction latency, including local injection
	// backpressure (registered via Network.RegisterStats).
	reqStart uint64
	lat      *sim.Histogram

	waker sim.Waker // the master's wake handle; nil outside an engine
}

// TryRequest implements ocp.MasterPort.
func (m *masterNI) TryRequest(req *ocp.Request) bool {
	switch m.state {
	case niIdle:
		if m.busyRead {
			return false
		}
		if err := req.Validate(); err != nil {
			panic(fmt.Sprintf("noc: master at node %d issued invalid request: %v", m.node, err))
		}
		// A new injection (or the locally synthesised error response below)
		// ends a fabric sleep: put the network (or this NI's shard region)
		// back into the event kernel's tick set before any state changes
		// land.
		m.wakeUp()
		m.req = *req
		m.reqStart = m.now()
		dst := m.net.decode(req.Addr)
		if dst == nil {
			// No slave: synthesise an error response locally.
			m.state = niInjected
			m.st.decodeErrors.Inc()
			if req.Cmd.IsRead() {
				m.resp = ocp.Response{Err: true}
				m.respAt = m.now() + m.net.cfg.RespCycles
				m.hasResp = true
			}
			m.noteBusy()
			m.wakeMaster(m.now() + 1)
			return false
		}
		pkt := m.st.getPacket()
		m.net.address(pkt, m.node, dst.node)
		pkt.req = m.req
		if len(m.req.Data) > 0 {
			// Copy the write payload into packet-owned storage: the master
			// may reuse its buffer as soon as the request is accepted, while
			// the packet crosses the mesh long after that.
			pkt.dataBuf = append(pkt.dataBuf[:0], m.req.Data...)
			pkt.req.Data = pkt.dataBuf
		}
		pkt.length, _ = FlitCounts(m.req.Cmd.IsWrite(), m.req.Burst)
		m.pkt = pkt
		m.nextFlit = 0
		m.state = niInjecting
		m.noteBusy()
		return false
	case niInjecting:
		return false
	case niInjected:
		m.state = niIdle
		if m.req.Cmd.IsRead() {
			m.busyRead = true
		}
		m.noteBusy()
		if m.hasResp {
			// A decode error's response came before the accept: the
			// master first asks for it on its next tick.
			m.wakeMaster(max(m.respAt, m.now()+1))
		}
		return true
	}
	return false
}

// TakeResponse implements ocp.MasterPort. The returned response is backed
// by NI-owned storage that the next transaction reuses (see the
// ocp.MasterPort contract).
func (m *masterNI) TakeResponse() (*ocp.Response, bool) {
	if !m.hasResp || m.now() < m.respAt {
		return nil, false
	}
	m.hasResp = false
	m.busyRead = false
	m.noteBusy()
	m.lat.Observe(m.now() - m.reqStart)
	return &m.resp, true
}

// Busy implements ocp.MasterPort.
func (m *masterNI) Busy() bool { return m.busyRead || m.state != niIdle }

// SetWaker implements sim.WakeSink for the master's handle (ocp.PassWaker).
func (m *masterNI) SetWaker(w sim.Waker) { m.waker = w }

// wakeMaster schedules the master's tick at cycle at; a master that did not
// hand over its waker polls instead.
func (m *masterNI) wakeMaster(at uint64) {
	if m.waker != nil {
		m.waker.WakeAt(at)
	}
}

// wakeUp ends a fabric sleep at this NI's node: the owning region's on a
// partitioned network, the network's otherwise.
func (m *masterNI) wakeUp() {
	if m.rg != nil {
		m.rg.Wake()
		return
	}
	m.net.wakeUp()
}

// inject moves up to one flit of the pending request packet into the local
// router; Network.tick calls it each cycle the NI is in niInjecting.
func (m *masterNI) inject(cycle uint64) {
	if m.r.queued(portL*numVC+vcReq) >= m.net.cfg.BufferFlits {
		return
	}
	fl := m.pkt.flit(m.nextFlit, cycle)
	m.r.pushIn(portL, vcReq, &fl)
	m.st.residentFlits++
	m.nextFlit++
	if m.nextFlit == m.pkt.length {
		m.pkt = nil // the network owns the packet from here on
		m.state = niInjected
		m.wakeMaster(cycle + 1)
	}
}

// acceptFlit implements localSink (response delivery).
func (m *masterNI) acceptFlit(fl *flit, cycle uint64) {
	if !fl.pkt.isResp {
		panic(fmt.Sprintf("noc: master NI at node %d received a request packet", m.node))
	}
	m.rxFlits++
	if fl.tail {
		m.resp = fl.pkt.resp
		if len(m.resp.Data) > 0 {
			m.respData = append(m.respData[:0], m.resp.Data...)
			m.resp.Data = m.respData
		}
		m.respAt = cycle + m.net.cfg.RespCycles
		m.hasResp = true
		m.wakeMaster(m.respAt)
		m.rxFlits = 0
		m.st.putPacket(fl.pkt)
	}
	m.noteBusy()
}

func (m *masterNI) idle() bool {
	return m.state == niIdle && !m.busyRead && !m.hasResp && m.rxFlits == 0
}

// noteBusy keeps the domain's busy-NI count in step with idle(); every
// method that can change idle()'s answer ends with it.
func (m *masterNI) noteBusy() { m.st.noteBusy(&m.busy, !m.idle()) }

// noteBusy records an NI's idle/busy transition (flag is the NI's mirror of
// what it last reported) in the domain's busy-NI count.
func (st *shardState) noteBusy(flag *bool, busy bool) {
	if busy == *flag {
		return
	}
	*flag = busy
	if busy {
		st.busyNIs++
	} else {
		st.busyNIs--
	}
}

var _ ocp.MasterPort = (*masterNI)(nil)
var _ sim.WakeSink = (*masterNI)(nil)
var _ localSink = (*masterNI)(nil)

// slaveNI terminates request packets at a slave, applies the access after
// the slave's intrinsic latency, and returns response packets for reads.
// Requests from different masters are served one at a time, in arrival
// order, like a single-ported memory controller.
type slaveNI struct {
	net   *Network
	node  int
	r     *router // the node's router, whose local port this NI feeds
	slave ocp.Slave
	rng   ocp.AddrRange
	// st is the pool/stats domain charged for this NI's packets (the
	// network's own, or its region's after Partition).
	st *shardState
	// busy mirrors !idle() as last reported to st.busyNIs (see noteBusy).
	busy bool

	// queue holds fully received packets waiting for service; qhead indexes
	// the next one so the backing array is reused instead of re-sliced away.
	queue   []*packet
	qhead   int
	current *packet
	doneAt  uint64

	out      *packet
	nextFlit int
	// scratch is the reusable buffer threaded through write Performs (the
	// read path serves into the response packet's own buffer instead).
	scratch []uint32
}

// acceptFlit implements localSink (request delivery).
func (s *slaveNI) acceptFlit(fl *flit, cycle uint64) {
	if fl.pkt.isResp {
		panic(fmt.Sprintf("noc: slave NI at node %d received a response packet", s.node))
	}
	if fl.tail {
		s.queue = append(s.queue, fl.pkt)
		s.noteBusy()
	}
}

// tick advances a busy slave NI by one cycle; Network.tick skips the idle
// ones, which have nothing queued, in service or draining.
func (s *slaveNI) tick(cycle uint64) {
	// Drain the outgoing response packet first: one flit per cycle.
	if s.out != nil {
		if s.r.queued(portL*numVC+vcResp) < s.net.cfg.BufferFlits {
			fl := s.out.flit(s.nextFlit, cycle)
			s.r.pushIn(portL, vcResp, &fl)
			s.st.residentFlits++
			s.nextFlit++
			if s.nextFlit == s.out.length {
				s.out = nil
				s.noteBusy()
			}
		}
		return
	}
	if s.current != nil {
		if cycle < s.doneAt {
			return
		}
		if s.current.req.Cmd.IsRead() {
			// Serve read data straight into the response packet's own
			// buffer; it stays valid until the master NI copies it out and
			// recycles the packet.
			out := s.st.getPacket()
			var resp ocp.Response
			resp, out.dataBuf = ocp.PerformBuffered(s.slave, &s.current.req, out.dataBuf)
			if resp.Err {
				s.st.slaveErrors.Inc()
			}
			s.net.address(out, s.node, s.current.src)
			out.isResp = true
			out.resp = resp
			_, out.length = FlitCounts(false, s.current.req.Burst)
			s.out = out
			s.nextFlit = 0
		} else {
			var resp ocp.Response
			resp, s.scratch = ocp.PerformBuffered(s.slave, &s.current.req, s.scratch)
			if resp.Err {
				s.st.slaveErrors.Inc()
			}
		}
		s.st.putPacket(s.current)
		s.current = nil
	}
	if s.current == nil && s.qhead < len(s.queue) {
		s.current = s.queue[s.qhead]
		s.queue[s.qhead] = nil
		s.qhead++
		if s.qhead == len(s.queue) {
			s.queue = s.queue[:0]
			s.qhead = 0
		} else if s.qhead >= 32 && 2*s.qhead >= len(s.queue) {
			// Slide the backlog down while the queue is busy: without this
			// a long busy period grows the backing array with every accepted
			// packet even though the depth itself is bounded.
			n := copy(s.queue, s.queue[s.qhead:])
			clear(s.queue[n:])
			s.queue = s.queue[:n]
			s.qhead = 0
		}
		s.doneAt = cycle + 1 + s.slave.AccessCycles(&s.current.req)
	}
	s.noteBusy()
}

func (s *slaveNI) idle() bool {
	return s.current == nil && s.out == nil && s.qhead == len(s.queue)
}

// noteBusy is masterNI.noteBusy for the slave side.
func (s *slaveNI) noteBusy() { s.st.noteBusy(&s.busy, !s.idle()) }

var _ localSink = (*slaveNI)(nil)
