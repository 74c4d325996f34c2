package ocp

import "noctg/internal/sim"

// Handshake is the master side of the socket: it presents a request
// until the port accepts it and, for a read, takes the response. Every
// master embeds one and keeps only its own decisions — what to issue,
// when, and what to do with the answer. Embedding also gives the master
// its SetWaker, so it is a sim.WakeSink; a master that is driven by
// another device's Tick must sit in a named field of that device, or the
// engine would hand the port the wrong waker.
type Handshake struct {
	port MasterPort
	req  Request
	// sleeps is set when the port took the master's waker (PassWaker): a
	// blocked master then sleeps until the port wakes it.
	sleeps bool
	// waiting is set between a read's accept and its response.
	waiting bool
}

// NewHandshake binds a handshake to port.
func NewHandshake(port MasterPort) Handshake { return Handshake{port: port} }

// Start begins presenting req; the next Step offers it to the port. The
// request's Data must stay untouched until the port accepts it.
func (h *Handshake) Start(req Request) {
	h.req = req
	h.waiting = false
}

// Step advances the transaction by one cycle. A request still to be
// accepted is presented once; a read already accepted asks for its
// response. accepted reports the accept this cycle, done the end of the
// transaction: a posted write is done at its accept, a read when its
// response is taken, and resp is that response (nil for a write). resp
// may be backed by port storage that the next transaction reuses.
func (h *Handshake) Step() (accepted bool, resp *Response, done bool) {
	if h.waiting {
		resp, done = h.port.TakeResponse()
		h.waiting = !done
		return false, resp, done
	}
	if !h.port.TryRequest(&h.req) {
		return false, nil, false
	}
	h.waiting = h.req.Cmd.IsRead()
	return true, nil, !h.waiting
}

// BlockedWake is the wake of a master blocked in the handshake: WakeNever
// when the port took its waker and will wake it at its next answer, now
// (poll every cycle) otherwise.
func (h *Handshake) BlockedWake(now uint64) uint64 {
	if h.sleeps {
		return sim.WakeNever
	}
	return now
}

// SetWaker implements sim.WakeSink: the engine's handle goes to the port.
func (h *Handshake) SetWaker(w sim.Waker) { h.sleeps = PassWaker(h.port, w) }
