// Package simtest holds what the test suites share: the one table of
// execution axes with the differential oracle that runs every campaign
// over it (axes.go), and a scripted OCP master that issues a fixed
// sequence of transactions separated by idle gaps, recording accept and
// response cycles.
package simtest

import "noctg/internal/ocp"

// Step is one scripted transaction: idle Gap cycles after the previous
// transaction completes, then issue Req until accepted (and, for reads,
// until the response returns).
type Step struct {
	Gap uint64
	Req ocp.Request
}

// Master replays a script of Steps against an ocp.MasterPort. It implements
// sim.Device.
type Master struct {
	Port  ocp.MasterPort
	Steps []Step

	// Recorded observations, one entry per completed step.
	AssertCycles []uint64
	AcceptCycles []uint64
	RespCycles   []uint64 // reads only; writes record 0
	RespData     [][]uint32

	i         int
	idleLeft  uint64
	asserting bool
	waitResp  bool
	finished  bool
	started   bool
}

// NewMaster builds a scripted master over port.
func NewMaster(port ocp.MasterPort, steps []Step) *Master {
	return &Master{Port: port, Steps: steps}
}

// Done reports whether the whole script has completed.
func (m *Master) Done() bool { return m.finished }

// Tick implements sim.Device.
func (m *Master) Tick(cycle uint64) {
	if m.finished {
		return
	}
	if !m.started {
		m.started = true
		if len(m.Steps) == 0 {
			m.finished = true
			return
		}
		m.idleLeft = m.Steps[0].Gap
	}
	if m.waitResp {
		if resp, ok := m.Port.TakeResponse(); ok {
			m.RespCycles[len(m.RespCycles)-1] = cycle
			m.RespData = append(m.RespData, append([]uint32(nil), resp.Data...))
			m.waitResp = false
			m.advance()
		}
		return
	}
	if m.idleLeft > 0 {
		m.idleLeft--
		return
	}
	st := &m.Steps[m.i]
	if !m.asserting {
		m.asserting = true
		m.AssertCycles = append(m.AssertCycles, cycle)
	}
	if m.Port.TryRequest(&st.Req) {
		m.asserting = false
		m.AcceptCycles = append(m.AcceptCycles, cycle)
		m.RespCycles = append(m.RespCycles, 0)
		if st.Req.Cmd.IsRead() {
			m.waitResp = true
		} else {
			m.RespData = append(m.RespData, nil)
			m.advance()
		}
	}
}

func (m *Master) advance() {
	m.i++
	if m.i >= len(m.Steps) {
		m.finished = true
		return
	}
	m.idleLeft = m.Steps[m.i].Gap
}
