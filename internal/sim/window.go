package sim

// WindowedRun drives an engine in bounded windows while keeping the
// kernel's acceleration state (the event schedule, the skip kernel's wake
// memo) alive across window boundaries. The shard runner uses it to
// advance each shard's engine to a synchronization target many thousands
// of times per run; rebuilding the event schedule per window — as the
// Run/RunPhased entry points do per call — would cost O(devices) per
// window and erase the event kernel's advantage under one-cycle windows.
//
// A session is single-use and exclusive: between BeginWindowed and Close,
// advance the engine only through RunTo. External wakes (Waker.Wake and
// WakeAt) are honoured between windows exactly as they are mid-run — the
// event schedule stays live for the whole session.
type WindowedRun struct {
	e     *Engine
	event bool
	skip  bool
}

// BeginWindowed opens a windowed session on the engine's selected kernel.
func (e *Engine) BeginWindowed() *WindowedRun {
	w := &WindowedRun{e: e}
	w.event = e.kernel == KernelEvent
	w.skip = w.event || e.kernel == KernelSkip
	if w.skip && !w.event {
		e.resetWakeMemo()
	}
	if w.event {
		e.initEventSchedule()
		e.evLive = true
	}
	return w
}

// Close ends the session. The engine is ready for ordinary Run calls (or a
// new session) afterwards.
func (w *WindowedRun) Close() {
	if w.event {
		w.e.evLive = false
	}
}

// RunTo advances the engine to exactly the target cycle — a forced
// boundary, like a RunPhased window edge. The skip and event kernels jump
// all-asleep spans but clamp the jump at the target, so the engine always
// lands on it; the strict kernel executes every cycle (each one a no-op
// when all devices sleep, by the Sleeper contract).
func (w *WindowedRun) RunTo(target uint64) {
	e := w.e
	for e.cycle < target {
		if w.event {
			e.stepEvent()
		} else {
			e.Step()
		}
		if !w.skip || e.cycle >= target {
			continue
		}
		var nw uint64
		if w.event {
			nw = e.eventNextWake()
		} else {
			nw = e.nextWake()
		}
		if nw <= e.cycle {
			continue
		}
		if nw > target {
			nw = target
		}
		e.SkippedCycles += nw - e.cycle
		e.cycle = nw
	}
}

// NextWake returns the engine's horizon: the earliest cycle at which any
// registered device might act (>= Cycle()), or WakeNever on a fully
// quiescent engine. The strict kernel cannot bound device activity and
// conservatively reports the current cycle.
func (w *WindowedRun) NextWake() uint64 {
	e := w.e
	if w.event {
		return e.eventNextWake()
	}
	if w.skip {
		return e.nextWake()
	}
	return e.cycle
}
