package ocp

import (
	"testing"

	"noctg/internal/sim"
)

// step is one expected Step result.
type step struct {
	accepted bool
	resp     *Response
	done     bool
}

// TestHandshakeSteps drives the handshake over a scripted port: the
// request is presented until accepted, a posted write is done at its
// accept, and a read is done when its response (an error one included)
// is taken, never in the cycle of its accept.
func TestHandshakeSteps(t *testing.T) {
	data := &Response{Data: []uint32{7}}
	errResp := &Response{Err: true}
	write := Request{Cmd: Write, Addr: 0x10, Burst: 1, Data: []uint32{1}}
	read := Request{Cmd: Read, Addr: 0x10, Burst: 1}
	idle := step{}
	for _, tc := range []struct {
		name        string
		req         Request
		acceptAfter int       // rejected presentations before the accept
		respAfter   int       // Steps after the accept before the response is takeable; -1 from the start
		resp        *Response // the read's response
		want        []step
	}{
		{"write accepted at once", write, 0, 0, nil, []step{{true, nil, true}}},
		{"write accepted after 3 rejections", write, 3, 0, nil,
			[]step{idle, idle, idle, {true, nil, true}}},
		{"read answered next cycle", read, 0, 0, data, []step{{true, nil, false}, {false, data, true}}},
		{"read whose response is ready at its accept", read, 0, -1, data,
			[]step{{true, nil, false}, {false, data, true}}},
		{"read accepted after 2 rejections, answered 2 cycles later", read, 2, 2, data,
			[]step{idle, idle, {true, nil, false}, idle, idle, {false, data, true}}},
		{"read answered with an error", read, 1, 1, errResp,
			[]step{idle, {true, nil, false}, idle, {false, errResp, true}}},
	} {
		p := &scriptPort{acceptAfter: tc.acceptAfter, resp: tc.resp}
		h := NewHandshake(p)
		h.Start(tc.req)
		wait := -1 // Steps since the accept
		for i, want := range tc.want {
			if wait == tc.respAfter {
				p.respReady = true
			}
			accepted, resp, done := h.Step()
			if got := (step{accepted, resp, done}); got != want {
				t.Fatalf("%s: Step %d = %+v, want %+v", tc.name, i, got, want)
			}
			if accepted || wait >= 0 {
				wait++
			}
		}
		if p.tries != tc.acceptAfter+1 {
			t.Errorf("%s: request presented %d times, want %d", tc.name, p.tries, tc.acceptAfter+1)
		}
		if p.respReady {
			t.Errorf("%s: response left untaken", tc.name)
		}
	}
}

// wakingPort is a scriptPort that takes its master's waker.
type wakingPort struct {
	scriptPort
	waker sim.Waker
}

func (p *wakingPort) SetWaker(w sim.Waker) { p.waker = w }

type nopWaker struct{}

func (nopWaker) Wake()         {}
func (nopWaker) WakeAt(uint64) {}

// TestHandshakeBlockedWake: a blocked master sleeps (WakeNever) only when
// its port took the waker, looking through a Monitor; behind any other
// port it polls, waking at now.
func TestHandshakeBlockedWake(t *testing.T) {
	var w nopWaker
	waking := &wakingPort{}
	for _, tc := range []struct {
		name string
		port MasterPort
		want uint64
	}{
		{"port without SetWaker", &scriptPort{}, 7},
		{"waker-taking port", waking, sim.WakeNever},
		{"waker-taking port behind a monitor", NewMonitor(waking, func() uint64 { return 0 }), sim.WakeNever},
	} {
		h := NewHandshake(tc.port)
		if got := h.BlockedWake(7); got != 7 {
			t.Errorf("%s: BlockedWake before SetWaker = %d, want 7", tc.name, got)
		}
		waking.waker = nil
		h.SetWaker(w)
		if got := h.BlockedWake(7); got != tc.want {
			t.Errorf("%s: BlockedWake = %d, want %d", tc.name, got, tc.want)
		}
		if tc.want == sim.WakeNever && waking.waker != w {
			t.Errorf("%s: the port did not receive the waker", tc.name)
		}
	}
}
