package core

import (
	"fmt"

	"noctg/internal/ocp"
	"noctg/internal/sim"
)

// MultiTaskConfig parameterises the multitasking TG master.
type MultiTaskConfig struct {
	// Timeslice is the scheduling quantum in cycles (default 500).
	Timeslice uint64
	// SwitchPenalty is the context-switch cost in cycles (default 20),
	// modelling register/cache state exchange.
	SwitchPenalty uint64
	// RunIdleTimers keeps suspended tasks' Idle timers running (a task
	// blocked in a long Idle behaves like a sleeping process whose timer
	// fires regardless of who is scheduled). When false, suspended tasks
	// are fully frozen: their Idle deadline is deferred by the length of
	// every suspension.
	RunIdleTimers bool
}

func (c MultiTaskConfig) withDefaults() MultiTaskConfig {
	if c.Timeslice == 0 {
		c.Timeslice = 500
	}
	if c.SwitchPenalty == 0 {
		c.SwitchPenalty = 20
	}
	return c
}

// MultiTask runs several TG programs ("tasks") on a single OCP master port
// under a preemptive round-robin timeslice scheduler — the paper's §7
// future-work scenario of "a system in which multiple tasks run on a single
// processor and are dynamically scheduled by an OS".
//
// Preemption happens only at safe points: between TG instructions, never
// while an OCP transaction is in flight (an OS cannot deschedule a core
// mid-bus-transfer either). Each switch costs SwitchPenalty idle cycles.
type MultiTask struct {
	cfg   MultiTaskConfig
	port  ocp.MasterPort
	tasks []*Device

	cur        int
	sliceLeft  uint64
	switchLeft uint64

	// lastTick records the last cycle each task was ticked; with frozen
	// idle timers (RunIdleTimers false), a resumed task's Idle deadline is
	// pushed by the gap, emulating a paused countdown over the devices'
	// absolute wake deadlines.
	lastTick []uint64
	ticked   []bool

	halted    bool
	haltCycle uint64
	// Switches counts completed context switches.
	Switches uint64
}

// NewMultiTask builds a multitasking master executing progs over port.
func NewMultiTask(cfg MultiTaskConfig, progs []*Program, port ocp.MasterPort) (*MultiTask, error) {
	if len(progs) == 0 {
		return nil, fmt.Errorf("core: MultiTask needs at least one task")
	}
	m := &MultiTask{cfg: cfg.withDefaults(), port: port}
	for i, p := range progs {
		d, err := NewDevice(p, port)
		if err != nil {
			return nil, fmt.Errorf("core: task %d: %w", i, err)
		}
		m.tasks = append(m.tasks, d)
	}
	m.sliceLeft = m.cfg.Timeslice
	m.lastTick = make([]uint64, len(m.tasks))
	m.ticked = make([]bool, len(m.tasks))
	return m, nil
}

// Done reports whether every task has halted.
func (m *MultiTask) Done() bool { return m.halted }

// HaltCycle returns the cycle the last task halted.
func (m *MultiTask) HaltCycle() uint64 { return m.haltCycle }

// Tick implements sim.Device.
func (m *MultiTask) Tick(cycle uint64) {
	if m.halted {
		return
	}
	if m.switchLeft > 0 {
		m.switchLeft--
		return
	}
	cur := m.tasks[m.cur]
	if cur.Done() {
		if !m.rotate(cycle, false) {
			return
		}
		cur = m.tasks[m.cur]
	}
	m.tickTask(m.cur, cycle)
	if m.sliceLeft > 0 {
		m.sliceLeft--
	}
	if cur.Done() {
		m.rotate(cycle, true)
		return
	}
	if m.sliceLeft == 0 && cur.Preemptible() {
		m.rotate(cycle, true)
	}
}

// tickTask ticks task i at cycle. Devices keep absolute Idle deadlines
// (which run on wall-clock cycles, matching RunIdleTimers semantics for
// free); with frozen timers the deadline is first deferred by however long
// the task sat suspended.
func (m *MultiTask) tickTask(i int, cycle uint64) {
	t := m.tasks[i]
	if !m.cfg.RunIdleTimers && m.ticked[i] && cycle > m.lastTick[i]+1 {
		t.PushWake(cycle - m.lastTick[i] - 1)
	}
	m.lastTick[i] = cycle
	m.ticked[i] = true
	t.Tick(cycle)
}

// rotate schedules the next runnable task; it returns false (and halts the
// master) when none remain. When penalize is set the switch pays the
// context-switch cost.
func (m *MultiTask) rotate(cycle uint64, penalize bool) bool {
	n := len(m.tasks)
	for k := 1; k <= n; k++ {
		i := (m.cur + k) % n
		if !m.tasks[i].Done() {
			if i != m.cur && penalize {
				m.switchLeft = m.cfg.SwitchPenalty
				m.Switches++
			}
			m.cur = i
			m.sliceLeft = m.cfg.Timeslice
			return true
		}
	}
	if m.tasks[m.cur].Done() {
		m.halted = true
		m.haltCycle = cycle
		return false
	}
	// Only the current task remains.
	m.sliceLeft = m.cfg.Timeslice
	return true
}

// NextWake implements sim.Sleeper conservatively: scheduling state (time
// slices, switch penalties) is per-tick countdown state, so a running
// multitask master asks to be ticked every cycle; only a fully halted one
// lets the skip and event kernels elide its ticks. Conservatism is safe by
// the Sleeper contract — it just keeps the master in the per-cycle tick
// set.
func (m *MultiTask) NextWake(now uint64) uint64 {
	if m.halted {
		return sim.WakeNever
	}
	return now
}

var _ sim.Device = (*MultiTask)(nil)
var _ sim.Sleeper = (*MultiTask)(nil)
