// Package simtest holds what the test suites share: the one table of
// execution axes with the differential oracle that runs every campaign
// over it (axes.go), the one harness that holds every stored golden,
// digest and pin to its producer (artifact.go), and a scripted OCP master
// that issues a fixed sequence of transactions separated by idle gaps,
// recording accept and response cycles.
//
// # The artifact contract
//
// Every deterministic output the repository stores — the sweep goldens,
// the measure, fabric and paper digests, the cloning pin — is a row of
// one harness, Artifacts: a name, a stored file and a producer of bytes.
// Each package holds its rows in one TestArtifacts table. For each row the
// harness runs the producer twice (the runs must agree), compares the
// bytes with the stored file, failing with the row, the path and the first
// differing byte, and prints "artifact <name> <sha256>" at column 0. A
// differential holds its reference bytes to the same files through the
// same compare (Pin).
//
// One environment variable, NOCTG_ARTIFACTS, switches every row and every
// Pin from comparing to rewriting; any value but "update" fails. After an
// intentional model change, regenerate every file and review the diff:
//
//	NOCTG_ARTIFACTS=update go test -count=1 -run '^TestArtifacts' ./...
//
// To show that a change leaves every artifact unchanged, diff the
// manifest of two trees:
//
//	go test -count=1 -run '^TestArtifacts' -v ./... | grep '^artifact '
//
// # Execution axes
//
// Kernel, shard count, worker count and journal resume are execution
// knobs: every campaign must serialise the bytes of its reference row
// (strict kernel, one engine, one worker, no crash) on every other row of
// the table in axes.go. "go test ./..." runs a covering set of rows, in
// which every value of every axis appears; NOCTG_AXES=full runs the whole
// cross product.
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
	ocp.Handshake
	Steps []Step

	// Recorded observations, one entry per completed step.
	AssertCycles []uint64
	AcceptCycles []uint64
	RespCycles   []uint64 // reads only; writes record 0
	RespData     [][]uint32

	i        int
	idleLeft uint64
	inFlight bool
	finished bool
	started  bool
}

// NewMaster builds a scripted master over port.
func NewMaster(port ocp.MasterPort, steps []Step) *Master {
	return &Master{Handshake: ocp.NewHandshake(port), Steps: steps}
}

// Done reports whether the whole script has completed.
func (m *Master) Done() bool { return m.finished }

// NextWake implements sim.Sleeper: the script counts its gaps down one
// tick at a time, so the master is always awake.
func (m *Master) NextWake(now uint64) uint64 { return now }

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
	if !m.inFlight {
		if m.idleLeft > 0 {
			m.idleLeft--
			return
		}
		m.inFlight = true
		m.AssertCycles = append(m.AssertCycles, cycle)
		m.Start(m.Steps[m.i].Req)
	}
	accepted, resp, done := m.Step()
	if accepted {
		m.AcceptCycles = append(m.AcceptCycles, cycle)
		m.RespCycles = append(m.RespCycles, 0)
	}
	if !done {
		return
	}
	if resp != nil {
		m.RespCycles[len(m.RespCycles)-1] = cycle
		m.RespData = append(m.RespData, append([]uint32(nil), resp.Data...))
	} else {
		m.RespData = append(m.RespData, nil)
	}
	m.inFlight = false
	m.i++
	if m.i >= len(m.Steps) {
		m.finished = true
		return
	}
	m.idleLeft = m.Steps[m.i].Gap
}
