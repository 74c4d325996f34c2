package sim

// The event-driven kernel. The engine partitions devices into an active
// list (sorted by registration index) and a sleep heap (an indexed binary
// min-heap ordered by (wake cycle, registration index)). Each executed
// cycle first admits every sleeper whose wake is due into the active list,
// then sweeps the list in index order, ticking each device and asking its
// post-tick NextWake: a device that stays active costs no data-structure
// work at all, and one that goes back to sleep moves to the heap. The
// per-cycle cost therefore scales with the number of awake devices — a
// steady active set touches the heap zero times per cycle — and when the
// active list empties, run's shared jump logic advances the cycle counter
// straight to the heap's earliest wake, which is exactly the skip kernel's
// all-asleep fast-forward.
//
// Correctness leans on two properties. First, the Sleeper contract (see
// engine.go) makes a reported wake w a promise that every omitted Tick in
// [now, w) would have been a no-op, so omitting them cannot change
// simulated state. Second, a device that can be stimulated by another
// device outside its own Tick — an interconnect whose master ports receive
// TryRequest calls — implements WakeSink and calls its Waker at the moment
// of stimulus; the engine then moves it back to the active list. The sorted
// sweep makes the timing come out exactly as under strict ticking: a sink
// with a higher registration index than the stimulating device is inserted
// ahead of the sweep position and ticks in the same cycle (under strict
// ticking its slot runs after the stimulator's), while a lower-indexed sink
// is inserted behind the sweep position and first ticks next cycle (under
// strict ticking its slot this cycle already ran, before the stimulus
// existed, and was a no-op). Early wakes are always safe: ticking a device
// that has nothing to do is a no-op by construction, so a conservative wake
// can never diverge from strict semantics.

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

// notInHeap marks a device that is on the active list rather than in the
// sleep heap.
const notInHeap = int32(-1)

// wakeDevice handles an external-stimulus wake for device idx: it drops the
// skip kernel's memoized wake (forcing a re-query) and, inside an event
// run, moves a sleeping device back to the active list.
func (e *Engine) wakeDevice(idx int32) {
	if int(idx) < len(e.wakeMemo) {
		e.wakeMemo[idx] = 0
	}
	if !e.evLive || e.evPos[idx] == notInHeap {
		return
	}
	e.heapRemove(idx)
	e.activeInsert(idx)
}

// wakeDeviceAt records a scheduled wake in e.due, which every kernel reads.
// An event run also wakes a sleeper due next cycle at once, as Wake does,
// or moves a later one's heap entry forward.
func (e *Engine) wakeDeviceAt(idx int32, at uint64) {
	if int(idx) >= len(e.due) {
		e.sizeDue()
	}
	if d := e.due[idx]; d > e.cycle && d <= at {
		return
	}
	e.due[idx] = at
	if int(idx) < len(e.wakeMemo) && at < e.wakeMemo[idx] {
		e.wakeMemo[idx] = at
	}
	if !e.evLive || e.evPos[idx] == notInHeap {
		return
	}
	if at <= e.cycle+1 {
		e.heapRemove(idx)
		e.activeInsert(idx)
	} else if at < e.evWake[idx] {
		e.evWake[idx] = at
		e.evUp(e.evPos[idx])
	}
}

// initEventSchedule (re)builds the active list and sleep heap from every
// device's current NextWake. It runs at the start of each event-kernel Run,
// so state changes made between runs (direct device manipulation in tests,
// programs loaded after a previous run) are always picked up. Storage is
// reused across runs; steady-state event runs allocate nothing.
func (e *Engine) initEventSchedule() {
	e.sizeDue()
	n := len(e.devices)
	if cap(e.evWake) < n {
		e.evWake = make([]uint64, n)
		e.evPos = make([]int32, n)
		e.evHeap = make([]int32, 0, n)
		e.evActive = make([]int32, 0, n)
	}
	e.evWake = e.evWake[:n]
	e.evPos = e.evPos[:n]
	e.evHeap = e.evHeap[:0]
	e.evActive = e.evActive[:0]
	now := e.cycle
	for i := 0; i < n; i++ {
		w := e.sleepers[i].NextWake(now)
		if d := e.due[i]; d >= now && d < w {
			w = d
		}
		if w <= now {
			// Ascending i keeps the active list sorted by construction.
			e.evPos[i] = notInHeap
			e.evActive = append(e.evActive, int32(i))
			continue
		}
		e.evWake[i] = w
		e.evHeap = append(e.evHeap, int32(i))
		e.evPos[i] = int32(len(e.evHeap) - 1)
	}
	for i := int32(len(e.evHeap))/2 - 1; i >= 0; i-- {
		e.evDown(i)
	}
	e.evSweep = 0
}

// stepEvent executes one cycle under the event kernel: it admits every due
// sleeper, then ticks the active list in registration order, re-sorting
// each device into active/sleeping from its post-tick horizon. A device
// woken mid-cycle by a lower-indexed device lands ahead of the sweep and is
// picked up before the cycle ends.
func (e *Engine) stepEvent() {
	c := e.cycle
	if h := e.evHeap; len(h) != 0 && e.evWake[h[0]] <= c {
		e.admitDue(c)
	}
	devices, sleepers, fused := e.devices, e.sleepers, e.evFused
	for e.evSweep = 0; int(e.evSweep) < len(e.evActive); {
		idx := e.evActive[e.evSweep]
		var nw uint64
		if f := fused[idx]; f != nil {
			nw = f.TickWake(c)
		} else {
			devices[idx].Tick(c)
			nw = sleepers[idx].NextWake(c + 1)
		}
		if nw > c+1 {
			if d := e.due[idx]; d > c && d < nw {
				nw = d // a wake scheduled while the device was awake
			}
		}
		if nw <= c+1 {
			e.evSweep++
			continue
		}
		e.activeRemoveAt(e.evSweep)
		e.heapPush(idx, nw)
	}
	e.cycle++
}

// admitDue moves every sleeper whose wake is due into the active list
// (out of line: the common cycle pays only the heap-top check).
func (e *Engine) admitDue(c uint64) {
	for len(e.evHeap) > 0 {
		root := e.evHeap[0]
		if e.evWake[root] > c {
			return
		}
		e.heapRemove(root)
		e.activeInsert(root)
	}
}

// eventNextWake returns the earliest cycle at which any device acts: the
// current cycle while the active list is non-empty, else the heap top (or
// WakeNever on a fully quiescent engine).
func (e *Engine) eventNextWake() uint64 {
	if len(e.evActive) > 0 {
		return e.cycle
	}
	if len(e.evHeap) == 0 {
		return WakeNever
	}
	return e.evWake[e.evHeap[0]]
}

// activeInsert places idx into the sorted active list, keeping an in-flight
// sweep consistent: an insertion at or before the sweep position shifts the
// position up so the current cycle neither skips nor re-ticks a device.
func (e *Engine) activeInsert(idx int32) {
	a := e.evActive
	lo, hi := 0, len(a)
	for lo < hi {
		mid := (lo + hi) / 2
		if a[mid] < idx {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	e.evActive = append(a, 0)
	copy(e.evActive[lo+1:], e.evActive[lo:])
	e.evActive[lo] = idx
	if int32(lo) <= e.evSweep {
		e.evSweep++
	}
}

// activeRemoveAt drops the active-list entry at position i (the sweep
// position stays put, now pointing at the next entry).
func (e *Engine) activeRemoveAt(i int32) {
	a := e.evActive
	copy(a[i:], a[i+1:])
	e.evActive = a[:len(a)-1]
}

// heapPush files a sleeping device under its wake cycle.
func (e *Engine) heapPush(idx int32, w uint64) {
	e.evWake[idx] = w
	e.evHeap = append(e.evHeap, idx)
	p := int32(len(e.evHeap) - 1)
	e.evPos[idx] = p
	e.evUp(p)
}

// heapRemove detaches device idx from the sleep heap (marking it active).
func (e *Engine) heapRemove(idx int32) {
	p := e.evPos[idx]
	last := int32(len(e.evHeap) - 1)
	if p != last {
		e.evSwap(p, last)
	}
	e.evHeap = e.evHeap[:last]
	e.evPos[idx] = notInHeap
	if p != last {
		moved := e.evHeap[p]
		e.evUp(p)
		if e.evPos[moved] == p {
			e.evDown(p)
		}
	}
}

// evLess orders heap entries by (wake, registration index): the index
// tie-break is what keeps same-cycle admissions in registration order.
func (e *Engine) evLess(a, b int32) bool {
	wa, wb := e.evWake[a], e.evWake[b]
	return wa < wb || (wa == wb && a < b)
}

func (e *Engine) evSwap(i, j int32) {
	h := e.evHeap
	h[i], h[j] = h[j], h[i]
	e.evPos[h[i]] = i
	e.evPos[h[j]] = j
}

func (e *Engine) evUp(i int32) {
	h := e.evHeap
	for i > 0 {
		p := (i - 1) / 2
		if !e.evLess(h[i], h[p]) {
			break
		}
		e.evSwap(i, p)
		i = p
	}
}

func (e *Engine) evDown(i int32) {
	h := e.evHeap
	n := int32(len(h))
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		c := l
		if r := l + 1; r < n && e.evLess(h[r], h[l]) {
			c = r
		}
		if !e.evLess(h[c], h[i]) {
			return
		}
		e.evSwap(i, c)
		i = c
	}
}
