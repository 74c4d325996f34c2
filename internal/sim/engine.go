// Package sim provides the cycle-driven simulation kernel used by every
// other package in the repository. It stands in for the SystemC kernel that
// the paper's MPARM platform runs on.
//
// The strict kernel is deliberately simple: every registered device is
// ticked once per simulated clock cycle, in registration order, on a
// single goroutine. It is the oracle the other two kernels are held to,
// and, with both the ARM reference and the TG replay on it, the paper's
// like-for-like speedup: the gain comes from traffic generators doing less
// work per cycle than the processor models they replace.
//
// Every device states its next wake (Device embeds Sleeper). An
// idle-skipping kernel (KernelSkip) accelerates runs whose devices all
// sleep at once: when every registered device reports a future wake cycle
// — a TG deep inside an Idle(100000), a core stalled on a quiescent
// interconnect — the engine advances the cycle counter straight to the
// earliest wake cycle instead of spinning through no-op ticks. Skipping
// never changes simulated state: a cycle is skipped only when no device
// could have done work in it, so makespans, histograms and per-device
// counters are identical to a strict run (the sweep differential tests
// assert byte-identical artifacts).
//
// The event-driven kernel (KernelEvent, event.go) goes one step further:
// instead of requiring every device to sleep before any cycle can be
// elided, it keeps a calendar of per-device wakes and ticks only the
// devices that are due each cycle. Its per-cycle cost scales with the
// number of awake devices, not the device count, so one saturated master
// among many idle ones no longer drags the whole platform back to
// strict-ticking speed. The all-asleep case degenerates to exactly the
// skip kernel's cycle jump.
package sim

import (
	"errors"
	"fmt"
	"slices"
)

// Device is anything driven by the simulation clock. Tick is called exactly
// once per executed cycle, in the order devices were registered, except
// where the device's own NextWake (the embedded Sleeper) has promised the
// tick a no-op: the skip and event kernels omit those. The cycle argument
// always carries the absolute cycle number, so devices that keep deadlines
// in absolute cycles observe no difference. A device that cannot bound its
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

// Named is optionally implemented by devices that want to appear with a
// readable name in diagnostics.
type Named interface {
	Name() string
}

// WakeNever is the NextWake return value of a device that will never act
// again without external stimulus (a halted TG, a fully drained bus).
const WakeNever = ^uint64(0)

// Sleeper is how a device declares future idleness to the skip and event
// kernels; every Device embeds it. NextWake(now) returns the earliest
// cycle at which the device might change state or perform work:
//
//   - now:        the device needs its Tick at cycle now (it is active);
//   - w > now:    the device will not act before cycle w — its Ticks are
//     guaranteed no-ops for every cycle in [now, w) and the engine may
//     omit them entirely;
//   - WakeNever:  the device is permanently quiescent.
//
// The contract is strict, not advisory: a reported wake of w is a promise
// that holds even if the device is never ticked and never re-queried
// during [now, w) — the event kernel removes sleeping devices from the
// tick loop altogether, and the skip kernel memoizes reported wakes. A
// device whose earliest action can move earlier because of external input
// (an interconnect receiving a TryRequest from a master) must therefore
// implement WakeSink and call its Waker when that input arrives; purely
// self-timed devices (absolute idle deadlines, recorded schedules) need
// nothing extra.
//
// The contract is also conservative: a device that cannot cheaply bound
// its next activity must return now. A conservative device merely keeps
// itself in the per-cycle tick set (event kernel) or disables whole-cycle
// skipping (skip kernel) without affecting correctness; the other devices
// still sleep through their own promises under the event kernel.
type Sleeper interface {
	NextWake(now uint64) uint64
}

// Kernel selects the engine's cycle-advance strategy.
type Kernel int

const (
	// KernelStrict ticks every device on every cycle (the default, and the
	// reference semantics the paper's speedups are reported against).
	KernelStrict Kernel = iota
	// KernelSkip fast-forwards over cycles in which every device sleeps.
	KernelSkip
	// KernelEvent ticks only devices whose scheduled wake is due, using a
	// per-device wake schedule (see event.go); when every device sleeps it
	// jumps the cycle counter like KernelSkip.
	KernelEvent
)

func (k Kernel) String() string {
	switch k {
	case KernelStrict:
		return "strict"
	case KernelSkip:
		return "skip"
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

	// blocker is the index of the device that most recently refused to
	// sleep. Scans start there: an active device tends to stay active, so
	// contended phases cost one NextWake call per cycle instead of a full
	// scan.
	blocker int
	// wakeMemo caches, per device, the last reported wake cycle. While the
	// cached value is in the future the skip kernel's nextWake scan trusts
	// it instead of re-querying the device; wakeDevice (the WakeSink hook)
	// invalidates the entry when external input arrives early.
	wakeMemo []uint64
	// due holds, per device, the cycle of its latest scheduled wake
	// (Waker.WakeAt); entries before the current cycle are spent. sizeDue
	// extends it to the device count where it is read.
	due []uint64
	// SkippedCycles counts cycles the skip and event kernels fast-forwarded
	// over (diagnostics only; strict runs keep it at zero).
	SkippedCycles uint64

	// Event-kernel schedule (event.go): evBits holds evWords words of
	// active set (evActive), then evWords of far set, then the ring of
	// evSlots per-cycle due sets; evRing marks the ring slots that may hold
	// a sleeper, evWake is each sleeping device's wake and evFarMin a lower
	// bound on the far set's wakes. evLive is true while an event-kernel
	// run is in progress.
	evBits   []uint64
	evActive []uint64
	evWake   []uint64
	evWords  int
	evRing   uint16
	evFarMin uint64
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

// Kernel returns the selected cycle-advance strategy.
func (e *Engine) Kernel() Kernel { return e.kernel }

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

// Devices returns the number of registered devices.
func (e *Engine) Devices() int { return len(e.devices) }

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

// nextWake returns the earliest cycle at which any device might act, asking
// every device with now = e.cycle (the next cycle to execute). The scan
// rotates, starting from the last blocking device, and exits at the first
// device that needs a tick now. Devices whose previously reported wake is
// still in the future are not re-queried: the Sleeper contract makes the
// cached value binding until then, and wakeDevice invalidates the memo when
// external input arrives early. The caller guarantees e.wakeMemo is sized
// to the device count.
func (e *Engine) nextWake() uint64 {
	now := e.cycle
	ds := e.devices
	memo := e.wakeMemo
	n := len(ds)
	if e.blocker >= n {
		e.blocker = 0
	}
	w := WakeNever
	for k := 0; k < n; k++ {
		i := e.blocker + k
		if i >= n {
			i -= n
		}
		nw := memo[i]
		if nw <= now {
			nw = ds[i].NextWake(now)
		}
		if d := e.due[i]; d >= now && d < nw {
			nw = d
		}
		memo[i] = nw
		if nw <= now {
			e.blocker = i
			return now
		}
		if nw < w {
			w = nw
		}
	}
	return w
}

// resetWakeMemo sizes and clears the skip kernel's per-device wake cache
// (stale entries could date from before direct device manipulation between
// runs, which bypasses the WakeSink hooks).
func (e *Engine) resetWakeMemo() {
	e.sizeDue()
	n := len(e.devices)
	if cap(e.wakeMemo) < n {
		e.wakeMemo = make([]uint64, n)
		return
	}
	e.wakeMemo = e.wakeMemo[:n]
	clear(e.wakeMemo)
}

// sizeDue gives every device a due entry, WakeNever for the new ones. The
// skip and event kernels call it as a run or session starts, and WakeAt
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
// Under the skip kernel, done() must depend only on device state (not on the
// raw cycle counter): skipped cycles are exactly those in which no device
// state changes, so the predicate is evaluated only at cycles where its
// value could differ from the previous evaluation.
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
// cycle. All loop state (start, end, the done closure's captures) is hoisted
// out of the per-cycle path, and the body allocates nothing in steady state.
//
// The three kernels share this loop. Strict executes every cycle with a
// full-device Step. Skip does the same but fast-forwards over all-asleep
// spans. Event replaces Step with stepEvent (ticking only due devices) and
// reads the next wake straight off the schedule's calendar; its jump logic
// is the skip kernel's, so the all-asleep case is byte-for-byte the same.
func (e *Engine) run(maxCycles, stride uint64, done func() bool) (uint64, error) {
	if done == nil {
		return 0, errors.New("sim: Run requires a completion predicate")
	}
	event := e.kernel == KernelEvent
	skip := event || e.kernel == KernelSkip
	if skip && !event {
		e.resetWakeMemo()
	}
	if event {
		e.initEventSchedule()
		e.evLive = true
		defer func() { e.evLive = false }()
	}
	start := e.cycle
	end := start + maxCycles
	checked := false // whether done() was evaluated at the current cycle
	// untilCheck counts down to the next stride boundary, replacing a
	// per-cycle modulo; skip/event jumps recompute it from the landing
	// cycle.
	untilCheck := stride
	for e.cycle < end {
		if event {
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
		if !skip {
			continue
		}
		var w uint64
		if event {
			w = e.eventNextWake()
		} else {
			w = e.nextWake()
		}
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
