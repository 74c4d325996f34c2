package sim

import "math/bits"

// The event-driven kernel. The engine keeps its devices in bitsets over
// registration index: an active set, swept word by word in index order
// each executed cycle, and a calendar of sleepers. Each cycle first admits
// the calendar's slot for that cycle into the active set, then sweeps it,
// ticking each device and asking its post-tick NextWake: a device that
// stays active costs no schedule work at all, and one that goes back to
// sleep is filed under its wake cycle. A wake fewer than evSlots cycles
// out sets a bit in that cycle's slot of a ring of per-cycle due sets; a
// later one sets a bit in the far set, which is re-filed into the ring as
// the ring turns; a device sleeping with WakeNever is parked in neither,
// and only a Waker brings it back. Wake, sleep and admit are therefore
// bit operations, the per-cycle cost scales with the number of awake
// devices, and when the active set empties, run's shared jump logic
// advances the cycle counter straight to the earliest filed wake, which
// is exactly the skip kernel's all-asleep fast-forward.
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

// evSlots is the calendar ring's length in cycles, a power of two. A
// bus transfer or a short idle fits in the ring; a longer sleep waits in
// the far set. Sixteen slots keep a small platform's whole schedule to one
// allocation of about 20 bytes a device: a 4-core AMBA platform's eleven
// devices take 232 bytes.
const evSlots = 16

// wakeDevice handles an external-stimulus wake for device idx: it drops the
// skip kernel's memoized wake (forcing a re-query) and, inside an event
// run, moves a sleeping device into the active set.
func (e *Engine) wakeDevice(idx int32) {
	if int(idx) < len(e.wakeMemo) {
		e.wakeMemo[idx] = 0
	}
	if e.evLive && !e.evAwake(idx) {
		e.evActivate(idx)
	}
}

// wakeDeviceAt records a scheduled wake in e.due, which every kernel reads.
// An event run also wakes a sleeper due next cycle at once, as Wake does,
// or files a later one under the earlier wake.
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
	if !e.evLive || e.evAwake(idx) {
		return
	}
	if at <= e.cycle+1 {
		e.evActivate(idx)
	} else if at < e.evWake[idx] {
		e.evUnfile(idx)
		e.evFile(idx, at)
	}
}

// initEventSchedule (re)builds the schedule from every device's current
// NextWake. It runs at the start of each event-kernel Run, so state
// changes made between runs (direct device manipulation in tests, programs
// loaded after a previous run) are always picked up. evWake and the
// bitsets share one allocation, reused across runs; steady-state event
// runs allocate nothing.
func (e *Engine) initEventSchedule() {
	e.sizeDue()
	n := len(e.devices)
	words := (n + 63) >> 6
	if len(e.evWake) != n {
		buf := make([]uint64, n+(2+evSlots)*words)
		e.evWake, e.evBits, e.evWords = buf[:n], buf[n:], words
		e.evActive = e.evBits[:words]
	}
	clear(e.evBits)
	e.evRing, e.evFarMin = 0, WakeNever
	now := e.cycle
	for i := 0; i < n; i++ {
		w := e.devices[i].NextWake(now)
		if d := e.due[i]; d >= now && d < w {
			w = d
		}
		if w <= now {
			e.evActive[i>>6] |= 1 << (uint(i) & 63)
		} else {
			e.evFile(int32(i), w)
		}
	}
}

// evAwake reports whether device idx is in the active set.
func (e *Engine) evAwake(idx int32) bool {
	return e.evActive[idx>>6]&(1<<(uint(idx)&63)) != 0
}

// evSlot returns the ring's due set for cycle c.
func (e *Engine) evSlot(c uint64) []uint64 {
	k := e.evWords
	return e.evBits[(2+int(c&(evSlots-1)))*k:][:k]
}

// evFile files sleeping device idx under wake w > e.cycle: in the ring
// while w is fewer than evSlots cycles out, else in the far set, and
// nowhere for WakeNever.
func (e *Engine) evFile(idx int32, w uint64) {
	e.evWake[idx] = w
	word, bit := idx>>6, uint64(1)<<(uint(idx)&63)
	switch {
	case w == WakeNever:
	case w-e.cycle < evSlots:
		e.evSlot(w)[word] |= bit
		e.evRing |= 1 << (w & (evSlots - 1))
	default:
		e.evBits[e.evWords+int(word)] |= bit
		e.evFarMin = min(e.evFarMin, w)
	}
}

// evUnfile takes sleeping device idx off the calendar. evFarMin stays a
// lower bound; evRefile recomputes it.
func (e *Engine) evUnfile(idx int32) {
	w := e.evWake[idx]
	if w == WakeNever {
		return
	}
	word, bit := idx>>6, uint64(1)<<(uint(idx)&63)
	e.evSlot(w)[word] &^= bit
	e.evBits[e.evWords+int(word)] &^= bit
}

// evActivate moves sleeping device idx into the active set.
func (e *Engine) evActivate(idx int32) {
	e.evUnfile(idx)
	e.evActive[idx>>6] |= 1 << (uint(idx) & 63)
}

// evRefile moves every far sleeper due within evSlots cycles into the
// ring, leaves evFarMin at the earliest wake still far, and returns the
// earliest far wake it found, moved or not. Far wakes are never behind the
// current cycle: the refile runs before the cycle that would pass one.
func (e *Engine) evRefile() uint64 {
	far := e.evBits[e.evWords : 2*e.evWords]
	first, least := WakeNever, WakeNever
	for word, m := range far {
		for ; m != 0; m &= m - 1 {
			i := word<<6 | bits.TrailingZeros64(m)
			w := e.evWake[i]
			first = min(first, w)
			if w-e.cycle < evSlots {
				far[word] &^= m & -m
				e.evFile(int32(i), w)
			} else {
				least = min(least, w)
			}
		}
	}
	e.evFarMin = least
	return first
}

// stepEvent executes one cycle under the event kernel: it admits the
// cycle's due sleepers, then sweeps the active set in registration order,
// filing each device that goes back to sleep under its post-tick wake. A
// device woken mid-cycle by a lower-indexed device sets its bit ahead of
// the sweep and is picked up before the cycle ends.
func (e *Engine) stepEvent() {
	c := e.cycle
	if e.evFarMin < c+evSlots {
		e.evRefile()
	}
	active := e.evActive
	if s := uint16(1) << (c & (evSlots - 1)); e.evRing&s != 0 {
		e.evRing &^= s
		slot := e.evSlot(c)
		for word, due := range slot {
			active[word] |= due
			slot[word] = 0
		}
	}
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
// current cycle while the active set is non-empty, else the first
// non-empty ring slot, else the far set's earliest wake (WakeNever on a
// fully quiescent engine).
func (e *Engine) eventNextWake() uint64 {
	for _, m := range e.evActive {
		if m != 0 {
			return e.cycle
		}
	}
	return e.calendarWake()
}

// calendarWake is eventNextWake with the active set empty. evRing, rotated
// to start at the current cycle, names the ring slots to look at in cycle
// order; a slot a woken sleeper left empty is passed over.
func (e *Engine) calendarWake() uint64 {
	c := e.cycle
	for r := bits.RotateLeft16(e.evRing, -int(c&(evSlots-1))); r != 0; r &= r - 1 {
		at := c + uint64(bits.TrailingZeros16(r))
		for _, m := range e.evSlot(at) {
			if m != 0 {
				return at
			}
		}
	}
	return e.evRefile()
}
