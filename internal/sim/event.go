package sim

import "math/bits"

// The event-driven kernel. The engine keeps its devices in a bitset over
// registration index, the active set, swept word by word in index order
// each executed cycle, and a wake table: evWake[i] holds sleeping device
// i's filed wake, or WakeNever while it is active or parked. The sweep
// ticks each active device and asks its post-tick NextWake: a device that
// stays active costs no schedule work at all, and one that goes back to
// sleep leaves the active set with its wake filed in the table. evNext is
// a lower bound on the filed wakes, and exact while it is ahead of the
// current cycle; on a cycle it reaches, one admission pass over the table
// moves every due sleeper into the active set and recomputes it. A device
// sleeping with WakeNever is filed nowhere, and only a Waker brings it
// back. So the per-cycle cost scales with the number of awake devices,
// plus one O(devices) pass on each cycle where a filed wake falls due.
// When the active set empties, run's jump logic advances the cycle counter
// straight to the earliest filed wake. The skip kernel runs on this same
// schedule: evActivateAll puts every device into the active set before each
// of its executed cycles.
//
// Correctness leans on two properties. First, the Sleeper contract (see
// engine.go) makes a reported wake w a promise that every omitted Tick in
// [now, w) would have been a no-op, so omitting them cannot change
// simulated state. Second, a device that can be stimulated by another
// device outside its own Tick — an interconnect whose master ports receive
// TryRequest calls — implements WakeSink and calls its Waker at the moment
// of stimulus; the engine then sets its active bit. The index-ordered
// sweep makes the timing come out exactly as under strict ticking: a bit
// set ahead of the sweep cursor (a sink registered after the stimulating
// device) ticks in the same cycle, as its strict slot runs after the
// stimulator's, while a bit set behind the cursor first ticks next cycle
// (under strict ticking its slot this cycle already ran, before the
// stimulus existed, and was a no-op). Early wakes are always safe: ticking
// a device that has nothing to do is a no-op by construction, so a
// conservative wake can never diverge from strict semantics.

// Waker is the engine-provided wake handle for one registered device. Its
// calls never block and never allocate. Wake reports that the device's own
// state changed under it (a fabric receiving a request): the engine
// re-queries its NextWake and puts it back into the tick set at once.
// WakeAt(at) schedules a tick at cycle at, after the executing one,
// whatever NextWake then reports: a master blocked on its port sleeps with
// WakeNever, and the port calls WakeAt for each change of its answers. The
// engine keeps the wake until cycle at executes, across Run calls, on every
// kernel; a later one scheduled meanwhile is dropped, as a port has one
// change outstanding at a time.
type Waker interface {
	Wake()
	WakeAt(at uint64)
}

// WakeSink is implemented by devices whose earliest action can be moved
// earlier by another device's Tick — an interconnect whose ports are poked
// by masters via TryRequest, or a master blocked on such a port. The engine
// calls SetWaker once at registration; the device, or the port a master
// hands the handle to, must call Wake or WakeAt whenever such external
// input arrives while it may be sleeping. Purely self-timed devices
// (absolute idle deadlines, recorded replay schedules) and devices that
// never report future wakes need not implement it.
type WakeSink interface {
	SetWaker(Waker)
}

// TickSleeper is an optional fast path for the event kernel, fusing
// Device.Tick and Sleeper.NextWake into one dynamic call: TickWake(c) must
// behave exactly like Tick(c) followed by NextWake(c+1). An awake device is
// ticked and re-queried every executed cycle, so halving its dispatch cost
// measurably widens the event kernel's margin; devices that don't implement
// it simply take the two-call path.
type TickSleeper interface {
	TickWake(cycle uint64) uint64
}

// engineWaker binds a Waker to one device slot of one engine.
type engineWaker struct {
	e   *Engine
	idx int32
}

// Wake implements Waker.
func (w *engineWaker) Wake() { w.e.wakeDevice(w.idx) }

// WakeAt implements Waker.
func (w *engineWaker) WakeAt(at uint64) { w.e.wakeDeviceAt(w.idx, at) }

// wakeDevice handles an external-stimulus wake for device idx: inside a
// run or session on the wake schedule, it moves a sleeping device into the
// active set.
func (e *Engine) wakeDevice(idx int32) {
	if e.evLive && !e.evAwake(idx) {
		e.evActivate(idx)
	}
}

// wakeDeviceAt records a scheduled wake in e.due, which every kernel reads.
// A run on the wake schedule also wakes a sleeper due next cycle at once,
// as Wake does, or files a later one under the earlier wake.
func (e *Engine) wakeDeviceAt(idx int32, at uint64) {
	if int(idx) >= len(e.due) {
		e.sizeDue()
	}
	if d := e.due[idx]; d > e.cycle && d <= at {
		return
	}
	e.due[idx] = at
	if !e.evLive || e.evAwake(idx) {
		return
	}
	if at <= e.cycle+1 {
		e.evActivate(idx)
	} else if at < e.evWake[idx] {
		e.evFile(idx, at)
	}
}

// initEventSchedule (re)builds the schedule from every device's current
// NextWake. It runs at the start of each event-kernel Run, so state
// changes made between runs (direct device manipulation in tests, programs
// loaded after a previous run) are always picked up. evWake and the active
// set share one allocation, reused across runs; steady-state event runs
// allocate nothing.
func (e *Engine) initEventSchedule() {
	e.sizeDue()
	n := len(e.devices)
	if len(e.evWake) != n {
		buf := make([]uint64, n+(n+63)>>6)
		e.evWake, e.evActive = buf[:n], buf[n:]
	}
	clear(e.evActive)
	e.evNext = WakeNever
	now := e.cycle
	for i := 0; i < n; i++ {
		w := e.devices[i].NextWake(now)
		if d := e.due[i]; d >= now && d < w {
			w = d
		}
		if w <= now {
			e.evActivate(int32(i))
		} else {
			e.evFile(int32(i), w)
		}
	}
}

// evAwake reports whether device idx is in the active set.
func (e *Engine) evAwake(idx int32) bool {
	return e.evActive[idx>>6]&(1<<(uint(idx)&63)) != 0
}

// evFile files sleeping device idx under wake w > e.cycle; WakeNever
// parks it.
func (e *Engine) evFile(idx int32, w uint64) {
	e.evWake[idx] = w
	e.evNext = min(e.evNext, w)
}

// evActivate moves sleeping device idx into the active set. Taking the
// earliest filed wake off the table pulls evNext back to the current
// cycle, so that the next step or jump recomputes it.
func (e *Engine) evActivate(idx int32) {
	if w := e.evWake[idx]; w == e.evNext && w != WakeNever {
		e.evNext = e.cycle
	}
	e.evWake[idx] = WakeNever
	e.evActive[idx>>6] |= 1 << (uint(idx) & 63)
}

// evActivateAll moves every device into the active set, so that the next
// stepEvent ticks them all: the skip kernel's executed cycle.
func (e *Engine) evActivateAll() {
	for i := range e.evWake {
		e.evActivate(int32(i))
	}
	e.evNext = WakeNever // no wake is left filed
}

// evAdmit moves every sleeper due by cycle c into the active set and
// leaves evNext at the earliest wake still filed. Filed wakes are never
// behind the current cycle: every cycle and every jump stops at evNext.
func (e *Engine) evAdmit(c uint64) {
	next := WakeNever
	for i, w := range e.evWake {
		if w <= c {
			e.evActivate(int32(i))
		} else {
			next = min(next, w)
		}
	}
	e.evNext = next
}

// stepEvent executes one cycle under the event kernel: it admits the
// cycle's due sleepers, then sweeps the active set in registration order,
// filing each device that goes back to sleep under its post-tick wake. A
// device woken mid-cycle by a lower-indexed device sets its bit ahead of
// the sweep and is picked up before the cycle ends.
func (e *Engine) stepEvent() {
	c := e.cycle
	if e.evNext <= c {
		e.evAdmit(c)
	}
	active := e.evActive
	fused := e.evFused
	for word := range active {
		for m := active[word]; m != 0; {
			bit := m & -m
			i := word<<6 | bits.TrailingZeros64(m)
			var nw uint64
			if f := fused[i]; f != nil {
				nw = f.TickWake(c)
			} else {
				e.devices[i].Tick(c)
				nw = e.devices[i].NextWake(c + 1)
			}
			if nw > c+1 {
				if d := e.due[i]; d > c && d < nw {
					nw = d // a wake scheduled while the device was awake
				}
			}
			if nw > c+1 {
				active[word] &^= bit
				e.evFile(int32(i), nw)
			}
			// Reloading the word above the cursor picks up the bits this
			// tick set ahead of it.
			m = active[word] &^ (bit<<1 - 1)
		}
	}
	e.cycle++
}

// eventNextWake returns the earliest cycle at which any device acts: the
// current cycle while the active set is non-empty, else the earliest filed
// wake (WakeNever on a fully quiescent engine). An evNext the current
// cycle has reached may be stale, so it runs the admission pass first, and
// a jump always lands on a real wake.
func (e *Engine) eventNextWake() uint64 {
	if !e.evIdle() {
		return e.cycle
	}
	if e.evNext <= e.cycle {
		if e.evAdmit(e.cycle); !e.evIdle() {
			return e.cycle
		}
	}
	return e.evNext
}

// evIdle reports whether the active set is empty.
func (e *Engine) evIdle() bool {
	for _, m := range e.evActive {
		if m != 0 {
			return false
		}
	}
	return true
}
