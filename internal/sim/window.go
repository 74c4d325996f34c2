package sim

// WindowedRun drives an engine in bounded windows while keeping the wake
// schedule (event.go) alive across window boundaries. The shard runner uses
// it to advance each shard's engine to a synchronization target many
// thousands of times per run; rebuilding the schedule per window — as the
// Run/RunPhased entry points do per call — would cost O(devices) per
// window and erase the event kernel's advantage under one-cycle windows.
//
// A session is single-use and exclusive: once BeginWindowed opens it,
// advance the engine only through RunTo (the shard runner keeps each
// shard's session for the engine's lifetime). External wakes (Waker.Wake and
// WakeAt) are honoured between windows exactly as they are mid-run — the
// schedule stays live for the whole session.
type WindowedRun struct {
	e     *Engine
	sched bool
}

// BeginWindowed opens a windowed session on the engine's selected kernel.
func (e *Engine) BeginWindowed() *WindowedRun {
	w := &WindowedRun{e: e, sched: e.kernel == KernelEvent}
	if w.sched {
		e.initEventSchedule()
		e.evLive = true
	}
	return w
}

// RunTo advances the engine to exactly the target cycle — a forced
// boundary, like a RunPhased window edge. The event kernel jumps
// all-asleep spans but clamps the jump at the target, so the engine always
// lands on it; the strict kernel executes every cycle (each one a no-op
// when all devices sleep, by the Sleeper contract).
func (w *WindowedRun) RunTo(target uint64) {
	e := w.e
	for e.cycle < target {
		if w.sched {
			e.stepEvent()
		} else {
			e.Step()
		}
		if !w.sched || e.cycle >= target {
			continue
		}
		nw := e.eventNextWake()
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
	if w.sched {
		return w.e.eventNextWake()
	}
	return w.e.cycle
}
