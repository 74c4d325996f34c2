// Package guard is the simulator's hardening layer: runtime invariant
// watchdogs and structured violation diagnostics.
//
// The watchdogs cover the failure modes a wormhole NoC simulator can
// otherwise only express as a silent infinite loop or a process-killing
// panic:
//
//   - monotonic progress (deadlock/livelock): packets keep retiring while
//     any are in flight, within a configurable no-retire cycle horizon;
//   - flit conservation: every domain's resident-flit account matches its
//     router FIFO occupancy, and every cut link's push/pop/credit counters
//     agree with the FIFO it feeds;
//   - pool mass: live packet references across NIs, FIFOs and rings match
//     the pool's outstanding count, across shard return lists;
//   - wall-clock run budget: a bound on host time, for service-style
//     callers that must never lose a worker to one pathological point;
//   - barrier stall: a shard that stops arriving at window barriers is
//     detected instead of hanging every other shard forever.
//
// All checks are observational: a fault-free guarded run executes exactly
// the cycles an unguarded run does, allocates nothing on the hot path, and
// produces byte-identical artifacts for every kernel and shard count. On a
// violation the run stops with a typed *Violation error carrying a
// Diagnostic dump of the stuck state instead of a panic or a hang.
//
// Nothing in the simulator exists to make a watchdog fire. The tests that
// prove each one does use real inputs (memories slower than the deadlock
// horizon) or stimulus that lives in tests (a master that sleeps on the
// host clock, a fabric account skewed between runs).
package guard

import (
	"errors"
	"fmt"
	"strings"
	"time"
)

// Kind classifies a violation.
type Kind string

const (
	// KindDeadlock fires when no packet retires for the configured horizon
	// while packets are in flight.
	KindDeadlock Kind = "deadlock-horizon"
	// KindBudget fires when the wall-clock run budget is exceeded.
	KindBudget Kind = "run-budget"
	// KindConservation fires when a flit/credit conservation invariant
	// breaks (per-domain resident counts, per-link per-VC counters).
	KindConservation Kind = "flit-conservation"
	// KindPoolMass fires when live packet references disagree with the
	// packet pools' outstanding count.
	KindPoolMass Kind = "pool-mass"
	// KindBarrierStall fires when a shard stops arriving at window
	// barriers.
	KindBarrierStall Kind = "barrier-stall"
	// KindPanic wraps a recovered panic (a device or model bug) as a
	// structured violation.
	KindPanic Kind = "panic"
)

// Transient reports whether a violation of this kind is plausibly an
// artifact of the host rather than the configuration: wall-clock budget
// and barrier-stall violations depend on machine load, and a recovered
// worker panic may be a scheduling-sensitive bug. Transient failures are
// worth retrying (sweep's retry policy re-runs them on the same kernel and
// shard count); the remaining kinds — deadlock, flit conservation, pool
// mass — are deterministic properties of the point and retrying can only
// waste the campaign's wall clock, so sweep quarantines them immediately.
func (k Kind) Transient() bool {
	switch k {
	case KindBudget, KindBarrierStall, KindPanic:
		return true
	}
	return false
}

// Violation is the typed error every watchdog returns instead of hanging
// or panicking. Shard is -1 when the violation is not specific to one
// shard (single-engine runs, global invariants).
type Violation struct {
	Kind  Kind   `json:"kind"`
	Cycle uint64 `json:"cycle"`
	Shard int    `json:"shard"`
	Msg   string `json:"msg"`
	// Stack holds the recovered goroutine stack for KindPanic. It is
	// excluded from JSON so failed points do not make sweep artifacts
	// host-dependent (stack text embeds argument addresses).
	Stack string      `json:"-"`
	Diag  *Diagnostic `json:"diag,omitempty"`
}

// Error implements error.
func (v *Violation) Error() string {
	if v.Shard >= 0 {
		return fmt.Sprintf("guard: %s at cycle %d (shard %d): %s", v.Kind, v.Cycle, v.Shard, v.Msg)
	}
	return fmt.Sprintf("guard: %s at cycle %d: %s", v.Kind, v.Cycle, v.Msg)
}

// AsViolation unwraps err to the *Violation it carries, if any.
func AsViolation(err error) (*Violation, bool) {
	var v *Violation
	if errors.As(err, &v) {
		return v, true
	}
	return nil, false
}

// Diagnostic is the structured dump attached to a violation: enough of the
// stuck state to see what is wedged where without re-running under a
// debugger.
type Diagnostic struct {
	Cycle         uint64 `json:"cycle"`
	LivePackets   int    `json:"live_packets"`
	ResidentFlits int    `json:"resident_flits"`
	// Queues lists every non-empty router input FIFO.
	Queues []QueueDiag `json:"queues,omitempty"`
	// Masters lists every master NI that is not idle.
	Masters []MasterDiag `json:"masters,omitempty"`
	// Links lists every cut (inter-shard) link's counter state.
	Links []LinkDiag `json:"links,omitempty"`
	// Pools lists per-domain packet-pool accounting.
	Pools []PoolDiag `json:"pools,omitempty"`
	// Shards lists per-shard window state (sharded runs only).
	Shards []ShardWindow `json:"shards,omitempty"`
}

// QueueDiag describes one non-empty router input FIFO.
type QueueDiag struct {
	Node    int    `json:"node"`
	Port    string `json:"port"`
	VC      string `json:"vc"`
	Flits   int    `json:"flits"`
	HeadSrc int    `json:"head_src"`
	HeadDst int    `json:"head_dst"`
	// HeadAge is how many cycles the head flit has sat in this buffer.
	HeadAge uint64 `json:"head_age"`
}

// MasterDiag describes one non-idle master NI.
type MasterDiag struct {
	Node  int    `json:"node"`
	State string `json:"state"`
	// ReqStart is the cycle the pending request was latched.
	ReqStart uint64 `json:"req_start"`
}

// LinkDiag describes one cut link's flow-control counters (per VC with any
// traffic).
type LinkDiag struct {
	Node   int    `json:"node"` // importing router
	Port   string `json:"port"` // input port the link feeds
	VC     string `json:"vc"`
	Pushed uint64 `json:"pushed"`
	Popped uint64 `json:"popped"`
	Credit uint64 `json:"credit"`
	Ring   int    `json:"ring"` // flits parked in the export ring
}

// PoolDiag describes one pool domain's packet accounting. Domain is -1 for
// the unsharded base pool.
type PoolDiag struct {
	Domain  int `json:"domain"`
	Live    int `json:"live"`
	Pooled  int `json:"pooled"`
	Returns int `json:"returns"`
}

// ShardWindow describes one shard's window state at violation time.
type ShardWindow struct {
	Shard    int    `json:"shard"`
	Cycle    uint64 `json:"cycle"`
	Horizon  uint64 `json:"horizon"`
	Done     bool   `json:"done"`
	Progress uint64 `json:"progress"`
	Live     int64  `json:"live"`
}

// Summary renders a human-readable digest for CLI error output.
func (d *Diagnostic) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycle %d: %d packets live, %d flits resident", d.Cycle, d.LivePackets, d.ResidentFlits)
	if len(d.Queues) > 0 {
		fmt.Fprintf(&b, "\n  %d stuck queues:", len(d.Queues))
		for i, q := range d.Queues {
			if i == 8 {
				fmt.Fprintf(&b, "\n    ... %d more", len(d.Queues)-i)
				break
			}
			fmt.Fprintf(&b, "\n    node %d %s/%s: %d flits (head %d->%d, age %d)",
				q.Node, q.Port, q.VC, q.Flits, q.HeadSrc, q.HeadDst, q.HeadAge)
		}
	}
	if len(d.Masters) > 0 {
		fmt.Fprintf(&b, "\n  %d blocked masters:", len(d.Masters))
		for i, m := range d.Masters {
			if i == 8 {
				fmt.Fprintf(&b, "\n    ... %d more", len(d.Masters)-i)
				break
			}
			fmt.Fprintf(&b, "\n    node %d: %s since cycle %d", m.Node, m.State, m.ReqStart)
		}
	}
	for _, p := range d.Pools {
		fmt.Fprintf(&b, "\n  pool %d: %d live, %d pooled, %d on return lists", p.Domain, p.Live, p.Pooled, p.Returns)
	}
	for _, s := range d.Shards {
		fmt.Fprintf(&b, "\n  shard %d: cycle %d horizon %d done=%v progress=%d live=%d",
			s.Shard, s.Cycle, s.Horizon, s.Done, s.Progress, s.Live)
	}
	return b.String()
}

// DefaultHorizon is the default no-retire deadlock horizon in cycles. A
// healthy fabric retires packets every few hundred cycles under any load;
// a million idle-free cycles without one retirement is a wedge.
const DefaultHorizon = 1_000_000

// DefaultConservationEvery is the default cycle interval between
// conservation scans on a single-engine run.
const DefaultConservationEvery = 4096

// DefaultBarrierStall is the default wall-clock bound on one barrier wait.
const DefaultBarrierStall = 10 * time.Second

// Config selects which watchdogs run and their thresholds. The zero value
// disables everything (Enabled reports false).
type Config struct {
	// NoRetireHorizon is the deadlock horizon: a violation fires when no
	// packet retires for this many cycles while any packet is in flight.
	// 0 disables the watchdog.
	NoRetireHorizon uint64 `json:"no_retire_horizon,omitempty"`
	// RunBudget bounds the wall-clock duration of one run. 0 disables.
	RunBudget time.Duration `json:"run_budget,omitempty"`
	// Conservation enables the flit/credit and pool-mass invariant scans.
	Conservation bool `json:"conservation,omitempty"`
	// ConservationEvery is the cycle interval between scans on a
	// single-engine run (default DefaultConservationEvery). Sharded runs
	// scan at segment boundaries regardless.
	ConservationEvery uint64 `json:"conservation_every,omitempty"`
	// BarrierStall bounds one shard's wall-clock wait at a window barrier
	// (default applied by Default; 0 disables stall detection).
	BarrierStall time.Duration `json:"barrier_stall,omitempty"`
}

// Default returns the full watchdog set with default thresholds.
func Default() Config {
	return Config{
		NoRetireHorizon:   DefaultHorizon,
		Conservation:      true,
		ConservationEvery: DefaultConservationEvery,
		BarrierStall:      DefaultBarrierStall,
	}
}

// Enabled reports whether any watchdog is configured.
func (c Config) Enabled() bool {
	return c.NoRetireHorizon > 0 || c.RunBudget > 0 || c.Conservation || c.BarrierStall > 0
}

// Probes are the observation hooks a Monitor checks a platform through.
// Any hook may be nil: the corresponding watchdog simply cannot fire (an
// AMBA bus platform has no packet pool, so only the run budget applies).
type Probes struct {
	// Progress returns a monotone count of retired packets.
	Progress func() uint64
	// Live returns the number of packets currently in flight.
	Live func() int
	// Scan checks the conservation invariants, returning the first
	// violation found (Cycle left 0 for the Monitor to stamp).
	Scan func() *Violation
	// Diagnose captures the structured dump attached to violations.
	Diagnose func() *Diagnostic
}

// budgetCheckMask amortises the time.Now() syscall in Monitor.Check: the
// wall clock is consulted once per 64 checks.
const budgetCheckMask = 63

// Monitor is the single-engine watchdog driver. Check is installed as the
// engine's watchdog hook and runs at completion-predicate evaluation
// points (stride boundaries), so a fault-free guarded run executes exactly
// the cycles an unguarded one does. Check allocates nothing until a
// violation fires.
type Monitor struct {
	cfg Config
	p   Probes

	started      bool
	deadline     time.Time
	lastProgress uint64
	lastCycle    uint64
	lastScan     uint64
	ticks        uint32
	fired        *Violation
}

// NewMonitor builds a monitor over the probes. The wall-clock budget is
// armed at the first Check.
func NewMonitor(cfg Config, p Probes) *Monitor {
	if cfg.ConservationEvery == 0 {
		cfg.ConservationEvery = DefaultConservationEvery
	}
	return &Monitor{cfg: cfg, p: p}
}

// Violation returns the violation Check fired, if any.
func (m *Monitor) Violation() *Violation { return m.fired }

// Check runs every configured watchdog at cycle now. It returns nil while
// all invariants hold and the first violation (as an error) forever after
// one fires.
func (m *Monitor) Check(now uint64) error {
	if m.fired != nil {
		return m.fired
	}
	if !m.started {
		m.started = true
		m.lastCycle = now
		m.lastScan = now
		if m.cfg.RunBudget > 0 {
			m.deadline = time.Now().Add(m.cfg.RunBudget)
		}
	}
	if m.cfg.NoRetireHorizon > 0 && m.p.Progress != nil {
		prog := m.p.Progress()
		live := 0
		if m.p.Live != nil {
			live = m.p.Live()
		}
		if prog != m.lastProgress || live == 0 {
			// Retirement, or legitimate quiescence: either way the fabric
			// is not wedged, so the horizon restarts here.
			m.lastProgress = prog
			m.lastCycle = now
		} else if now-m.lastCycle >= m.cfg.NoRetireHorizon {
			return m.fire(&Violation{Kind: KindDeadlock, Cycle: now, Shard: -1,
				Msg: fmt.Sprintf("no packet retired for %d cycles with %d in flight (horizon %d)",
					now-m.lastCycle, live, m.cfg.NoRetireHorizon)})
		}
	}
	if m.cfg.Conservation && m.p.Scan != nil && now-m.lastScan >= m.cfg.ConservationEvery {
		m.lastScan = now
		if v := m.p.Scan(); v != nil {
			if v.Cycle == 0 {
				v.Cycle = now
			}
			return m.fire(v)
		}
	}
	if m.cfg.RunBudget > 0 {
		m.ticks++
		if m.ticks&budgetCheckMask == 0 && time.Now().After(m.deadline) {
			return m.fire(&Violation{Kind: KindBudget, Cycle: now, Shard: -1,
				Msg: fmt.Sprintf("wall-clock run budget %v exceeded", m.cfg.RunBudget)})
		}
	}
	return nil
}

// fire latches the first violation, attaching a diagnostic dump. The
// Diagnose probe walks device state that a violation may have left
// inconsistent, so it runs under its own recover: losing the dump must
// never lose the violation.
func (m *Monitor) fire(v *Violation) error {
	if v.Diag == nil && m.p.Diagnose != nil {
		func() {
			defer func() { _ = recover() }()
			v.Diag = m.p.Diagnose()
		}()
	}
	m.fired = v
	return v
}
