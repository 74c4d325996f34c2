// Package sim provides the cycle-driven simulation kernel used by every
// other package in the repository. It stands in for the SystemC kernel that
// the paper's MPARM platform runs on.
//
// # Kernels
//
// Two cycle-advance strategies drive an Engine, and both compute the same
// simulated state — makespans, histograms, counters and every artifact
// byte built from them:
//
//   - strict (KernelStrict) ticks every registered device once per cycle,
//     in registration order, on a single goroutine. It is the oracle the
//     event kernel is held to, and, with both the ARM reference and the TG
//     replay on it, the paper's like-for-like speedup: the gain comes from
//     traffic generators doing less work per cycle than the processor
//     models they replace.
//   - event (KernelEvent, event.go), the production kernel, keeps one wake
//     schedule: a filed wake per sleeping device, and only the awake
//     devices tick each cycle, so its sweep scales with the awake set,
//     plus one O(devices) admission pass on each cycle where a filed wake
//     falls due. When every device sleeps it jumps the cycle counter
//     straight to the earliest filed wake — a TG deep inside an
//     Idle(100000), a core stalled on a quiescent interconnect.
//
// The event kernel relies on one contract: every Device embeds a Sleeper,
// and NextWake is a strict "will not act before" promise that holds even
// if the device is never ticked or re-queried in between (see Sleeper). A
// device that cannot bound its next action reports NextWake(now) = now,
// as a DeviceFunc always does, and is ticked every cycle while the others
// still sleep; no device type switches an engine to strict ticking. A
// device whose earliest action another device can move earlier implements
// WakeSink and is woken through its Waker at the stimulus; a wake
// scheduled with WakeAt is kept until its cycle executes, across Run
// calls, on both kernels. How a master blocked on its port uses that
// handle is the package ocp's wake rule.
//
// Phase boundaries (Phases.Run) are forced wake points: each window is its
// own bounded run, and the event kernel clamps its jumps at a window's end
// as at a cycle budget, so both kernels snapshot the same state at the
// same boundary cycles. The platform layer picks the kernel
// (platform.KernelMode, whose zero value is event).
package sim

import (
	"errors"
	"fmt"
	"slices"
)

// Device is anything driven by the simulation clock. Tick is called exactly
// once per executed cycle, in the order devices were registered, except
// where the device's own NextWake (the embedded Sleeper) has promised the
// tick a no-op: the event kernel omits those. The cycle argument always
// carries the absolute cycle number, so devices that keep deadlines in
// absolute cycles observe no difference. A device that cannot bound its
// next activity reports NextWake(now) = now and is ticked every cycle.
type Device interface {
	Tick(cycle uint64)
	Sleeper
}

// DeviceFunc adapts a plain function to the Device interface. A function
// cannot state a future wake, so it counts as always awake.
type DeviceFunc func(cycle uint64)

// Tick calls f(cycle).
func (f DeviceFunc) Tick(cycle uint64) { f(cycle) }

// NextWake implements Sleeper: a DeviceFunc is always awake.
func (f DeviceFunc) NextWake(now uint64) uint64 { return now }

// WakeNever is the NextWake return value of a device that will never act
// again without external stimulus (a halted TG, a fully drained bus).
const WakeNever = ^uint64(0)

// Sleeper is how a device declares future idleness to the event kernel;
// every Device embeds it. NextWake(now) returns the earliest cycle at
// which the device might change state or perform work:
//
//   - now:        the device needs its Tick at cycle now (it is active);
//   - w > now:    the device will not act before cycle w — its Ticks are
//     guaranteed no-ops for every cycle in [now, w) and the engine may
//     omit them entirely;
//   - WakeNever:  the device is permanently quiescent.
//
// The contract is strict, not advisory: a reported wake of w is a promise
// that holds even if the device is never ticked and never re-queried
// during [now, w) — the wake schedule files the post-tick wake and does
// not ask again before it falls due. A device whose earliest action can
// move earlier because of external input (an interconnect receiving a
// TryRequest from a master) must therefore implement WakeSink and call its
// Waker when that input arrives; purely self-timed devices (absolute idle
// deadlines, recorded schedules) need nothing extra.
//
// The contract is also conservative: a device that cannot cheaply bound
// its next activity must return now. A conservative device merely keeps
// itself in the per-cycle tick set, and so keeps the event kernel from
// jumping, without affecting correctness; the other devices still sleep
// through their own promises.
type Sleeper interface {
	NextWake(now uint64) uint64
}

// Kernel selects the engine's cycle-advance strategy.
type Kernel int

const (
	// KernelStrict ticks every device on every cycle (the default, and the
	// reference semantics the paper's speedups are reported against).
	KernelStrict Kernel = iota
	// KernelEvent ticks only devices whose scheduled wake is due, using a
	// per-device wake schedule (see event.go); when every device sleeps it
	// jumps the cycle counter to the earliest wake.
	KernelEvent
)

func (k Kernel) String() string {
	switch k {
	case KernelStrict:
		return "strict"
	case KernelEvent:
		return "event"
	}
	return fmt.Sprintf("Kernel(%d)", int(k))
}

// ErrMaxCycles is returned by Run when the cycle limit is reached before the
// completion predicate becomes true.
var ErrMaxCycles = errors.New("sim: cycle limit reached")

// Engine is the cycle-driven simulation kernel. The zero value is ready to
// use and runs the strict kernel.
type Engine struct {
	devices []Device
	cycle   uint64
	clock   Clock
	kernel  Kernel

	// due holds, per device, the cycle of its latest scheduled wake
	// (Waker.WakeAt); entries before the current cycle are spent. sizeDue
	// extends it to the device count where it is read.
	due []uint64
	// SkippedCycles counts cycles the event kernel fast-forwarded over
	// (diagnostics only; strict runs keep it at zero).
	SkippedCycles uint64

	// Event-kernel schedule (event.go): evActive is the active set, evWake
	// each sleeping device's filed wake (WakeNever while active or parked)
	// and evNext a lower bound on those wakes. evLive is true while an
	// event-kernel run is in progress.
	evActive []uint64
	evWake   []uint64
	evNext   uint64
	evLive   bool
	// evFused mirrors devices with their TickSleeper fast path (nil where
	// unimplemented).
	evFused []TickSleeper

	// watchdog, when set, runs at every completion-predicate evaluation
	// point (after done() reports false); a non-nil error aborts the run.
	// Because it runs only where the predicate runs, a watchdog that fires
	// nothing leaves the executed cycle schedule — and the simulated state —
	// exactly as an unguarded run's (see internal/guard).
	watchdog func(cycle uint64) error
}

// NewEngine returns an engine using the given clock. A zero Clock means the
// default 5 ns period used throughout the paper's examples.
func NewEngine(clock Clock) *Engine {
	if clock.PeriodNS == 0 {
		clock = DefaultClock
	}
	return &Engine{clock: clock}
}

// Clock returns the engine's clock definition.
func (e *Engine) Clock() Clock {
	if e.clock.PeriodNS == 0 {
		return DefaultClock
	}
	return e.clock
}

// SetKernel selects the cycle-advance strategy for subsequent Run calls.
func (e *Engine) SetKernel(k Kernel) { e.kernel = k }

// Add registers a device. Devices are ticked in registration order; the
// platform packages rely on this to tick every master before the fabric,
// so that a request a master presents in cycle t is arbitrated in cycle t
// (the amba package's timing model).
func (e *Engine) Add(d Device) {
	if d == nil {
		panic("sim: Add(nil) device")
	}
	e.devices = append(e.devices, d)
	if ws, ok := d.(WakeSink); ok {
		ws.SetWaker(&engineWaker{e: e, idx: int32(len(e.devices) - 1)})
	}
	f, _ := d.(TickSleeper)
	e.evFused = append(e.evFused, f)
}

// Reserve sizes the device tables for n more devices, so that registering
// them grows none: code that knows its device count up front
// (platform.Build) calls it once instead of letting every Add double the
// tables.
func (e *Engine) Reserve(n int) {
	e.devices = slices.Grow(e.devices, n)
	e.evFused = slices.Grow(e.evFused, n)
}

// Cycle returns the current cycle number, i.e. the number of completed
// (executed or skipped) cycles since construction.
func (e *Engine) Cycle() uint64 { return e.cycle }

// SetWatchdog installs (or, with nil, removes) the run-loop watchdog hook.
// The hook is invoked at completion-predicate evaluation points with the
// current cycle; returning a non-nil error stops the run immediately with
// that error. Run/RunEvery/RunPhased honour it; windowed sessions
// (BeginWindowed/RunTo) do not — their caller, the shard runner, carries
// its own guard at window boundaries.
func (e *Engine) SetWatchdog(f func(cycle uint64) error) { e.watchdog = f }

// Step advances the simulation by one cycle, ticking every device once.
func (e *Engine) Step() {
	c := e.cycle
	for _, d := range e.devices {
		d.Tick(c)
	}
	e.cycle++
}

// sizeDue gives every device a due entry, WakeNever for the new ones.
// initEventSchedule calls it as a run or session starts, and WakeAt
// before it records a wake, so an engine sizes it once, not once per Add.
func (e *Engine) sizeDue() {
	n := len(e.devices)
	if len(e.due) >= n {
		return
	}
	due := make([]uint64, n)
	for i := copy(due, e.due); i < n; i++ {
		due[i] = WakeNever
	}
	e.due = due
}

// Run steps the simulation until done() reports true (checked after each
// cycle) or maxCycles cycles have elapsed, whichever comes first. It returns
// the number of cycles executed by this call. If the limit is hit first the
// returned error wraps ErrMaxCycles.
//
// Under the event kernel, done() must depend only on device state (not on
// the raw cycle counter): skipped cycles are exactly those in which no
// device state changes, so the predicate is evaluated only at cycles where
// its value could differ from the previous evaluation.
func (e *Engine) Run(maxCycles uint64, done func() bool) (uint64, error) {
	return e.run(maxCycles, 1, done)
}

// RunFor steps the simulation for exactly n cycles. It always ticks every
// device strictly, regardless of the selected kernel and of any device's
// NextWake: callers use it to reach a precise cycle count, which skipping
// would not change.
func (e *Engine) RunFor(n uint64) {
	for i := uint64(0); i < n; i++ {
		e.Step()
	}
}

// RunEvery is Run, but evaluates the completion predicate only every stride
// cycles. Devices still tick (or are provably idle) every cycle, so
// simulated state is unaffected; only the detection of completion is delayed
// by up to stride-1 cycles. Platforms use it to keep predicate evaluation
// out of the per-cycle hot path.
func (e *Engine) RunEvery(maxCycles, stride uint64, done func() bool) (uint64, error) {
	if stride == 0 {
		stride = 1
	}
	return e.run(maxCycles, stride, done)
}

// run is the shared Run/RunEvery loop. The predicate is evaluated at stride
// boundaries (relative to the start cycle) and, if the final budgeted cycle
// is not a boundary, once more after the loop — never twice for the same
// cycle. All loop state (start, end, the done closure's captures and the
// kernel choice) is hoisted out of the per-cycle path, and the body
// allocates nothing in steady state.
//
// Strict executes every cycle with a full-device Step; event runs on the
// wake schedule (event.go) and jumps all-asleep spans.
func (e *Engine) run(maxCycles, stride uint64, done func() bool) (uint64, error) {
	if done == nil {
		return 0, errors.New("sim: Run requires a completion predicate")
	}
	sched := e.kernel == KernelEvent
	if sched {
		e.initEventSchedule()
		e.evLive = true
		defer func() { e.evLive = false }()
	}
	start := e.cycle
	end := start + maxCycles
	checked := false // whether done() was evaluated at the current cycle
	// untilCheck counts down to the next stride boundary, replacing a
	// per-cycle modulo; jumps recompute it from the landing cycle.
	untilCheck := stride
	for e.cycle < end {
		if sched {
			e.stepEvent()
		} else {
			e.Step()
		}
		untilCheck--
		checked = untilCheck == 0
		if checked {
			untilCheck = stride
			if done() {
				return e.cycle - start, nil
			}
			if e.watchdog != nil {
				if err := e.watchdog(e.cycle); err != nil {
					return e.cycle - start, err
				}
			}
		}
		if !sched {
			continue
		}
		w := e.eventNextWake()
		if w <= e.cycle {
			continue
		}
		// Device state — and with it the predicate — is frozen until cycle
		// w executes. The strict kernel would evaluate the predicate at
		// every stride boundary inside (e.cycle, w]; one evaluation of the
		// frozen value stands in for all of them, and none is needed when
		// no boundary falls in the window (or when the boundary at e.cycle
		// already saw the frozen value).
		if det := start + ((e.cycle-start)/stride+1)*stride; !checked && det <= w {
			checked = true
			if done() {
				if det > end {
					det = end
				}
				e.SkippedCycles += det - e.cycle
				e.cycle = det
				return e.cycle - start, nil
			}
			if e.watchdog != nil {
				if err := e.watchdog(e.cycle); err != nil {
					return e.cycle - start, err
				}
			}
		}
		if w == WakeNever {
			// Frozen forever with a false predicate: the strict kernel
			// would spin no-op ticks to the budget and fail there.
			e.SkippedCycles += end - e.cycle
			e.cycle = end
			return e.cycle - start, fmt.Errorf("%w (%d cycles)", ErrMaxCycles, maxCycles)
		}
		if w > end {
			w = end
		}
		e.SkippedCycles += w - e.cycle
		e.cycle = w
		checked = false
		untilCheck = stride - (w-start)%stride
	}
	if !checked && done() {
		return e.cycle - start, nil
	}
	return e.cycle - start, fmt.Errorf("%w (%d cycles)", ErrMaxCycles, maxCycles)
}
