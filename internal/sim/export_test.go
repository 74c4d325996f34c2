package sim

// Devices returns the number of registered devices.
func (e *Engine) Devices() int { return len(e.devices) }

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() uint64 { return h.sum }

// Close ends the session. The engine is ready for ordinary Run calls (or a
// new session) afterwards.
func (w *WindowedRun) Close() {
	w.e.evLive = false
}
