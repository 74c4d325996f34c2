package ocp

import (
	"testing"
	"testing/quick"
)

func TestCmdStrings(t *testing.T) {
	cases := map[Cmd]string{
		None: "NONE", Read: "RD", Write: "WR", BurstRead: "BRD", BurstWrite: "BWR",
	}
	for c, want := range cases {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), want)
		}
	}
	if Cmd(99).String() != "Cmd(99)" {
		t.Errorf("unknown cmd string = %q", Cmd(99).String())
	}
}

func TestCmdClassification(t *testing.T) {
	if !Read.IsRead() || !BurstRead.IsRead() || Write.IsRead() || BurstWrite.IsRead() {
		t.Fatal("IsRead misclassifies")
	}
	if !Write.IsWrite() || !BurstWrite.IsWrite() || Read.IsWrite() || None.IsWrite() {
		t.Fatal("IsWrite misclassifies")
	}
}

func TestRequestValidate(t *testing.T) {
	cases := []struct {
		name string
		req  Request
		ok   bool
	}{
		{"read ok", Request{Cmd: Read, Addr: 0x100, Burst: 1}, true},
		{"write ok", Request{Cmd: Write, Addr: 0x100, Burst: 1, Data: []uint32{1}}, true},
		{"burst read ok", Request{Cmd: BurstRead, Addr: 0x100, Burst: 4}, true},
		{"burst write ok", Request{Cmd: BurstWrite, Addr: 0, Burst: 2, Data: []uint32{1, 2}}, true},
		{"read with burst", Request{Cmd: Read, Addr: 0x100, Burst: 4}, false},
		{"unaligned", Request{Cmd: Read, Addr: 0x101, Burst: 1}, false},
		{"write no data", Request{Cmd: Write, Addr: 0x100, Burst: 1}, false},
		{"burst write short payload", Request{Cmd: BurstWrite, Addr: 0, Burst: 4, Data: []uint32{1}}, false},
		{"read with data", Request{Cmd: Read, Addr: 0x100, Burst: 1, Data: []uint32{1}}, false},
		{"none", Request{Cmd: None, Addr: 0, Burst: 1}, false},
		{"zero burst", Request{Cmd: BurstRead, Addr: 0, Burst: 0}, false},
	}
	for _, c := range cases {
		err := c.req.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestAddrRange(t *testing.T) {
	r := AddrRange{Base: 0x1000, Size: 0x100}
	if !r.Contains(0x1000) || !r.Contains(0x10ff) {
		t.Fatal("Contains misses in-range addresses")
	}
	if r.Contains(0xfff) || r.Contains(0x1100) {
		t.Fatal("Contains accepts out-of-range addresses")
	}
	if r.End() != 0x1100 {
		t.Fatalf("End = %#x", r.End())
	}
	o := AddrRange{Base: 0x10f0, Size: 0x100}
	if !r.Overlaps(o) || !o.Overlaps(r) {
		t.Fatal("Overlaps should be symmetric and true")
	}
	if r.Overlaps(AddrRange{Base: 0x1100, Size: 4}) {
		t.Fatal("adjacent ranges must not overlap")
	}
	if r.String() == "" {
		t.Fatal("String empty")
	}
}

func TestAddrRangeContainsProperty(t *testing.T) {
	f := func(base uint16, size uint16, addr uint32) bool {
		r := AddrRange{Base: uint32(base), Size: uint32(size) + 1}
		in := addr >= r.Base && addr < r.Base+r.Size
		return r.Contains(addr) == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// scriptPort is a controllable MasterPort test double.
type scriptPort struct {
	acceptAfter int // number of TryRequest calls to reject before accepting
	tries       int
	resp        *Response
	respReady   bool
	busy        bool
}

func (p *scriptPort) TryRequest(req *Request) bool {
	p.tries++
	if p.tries > p.acceptAfter {
		p.busy = req.Cmd.IsRead()
		return true
	}
	return false
}

func (p *scriptPort) TakeResponse() (*Response, bool) {
	if p.respReady {
		p.respReady = false
		p.busy = false
		return p.resp, true
	}
	return nil, false
}

func (p *scriptPort) Busy() bool { return p.busy }

func TestMonitorRecordsWriteAcceptance(t *testing.T) {
	var cycle uint64
	p := &scriptPort{acceptAfter: 2}
	m := NewMonitor(p, func() uint64 { return cycle })
	m.Record()

	req := &Request{Cmd: Write, Addr: 0x20, Burst: 1, Data: []uint32{0x111}}
	for !m.TryRequest(req) {
		cycle++
	}
	evs := m.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1", len(evs))
	}
	e := evs[0]
	if e.Assert != 0 || e.Accept != 2 {
		t.Fatalf("assert=%d accept=%d, want 0,2", e.Assert, e.Accept)
	}
	if e.HasResp {
		t.Fatal("posted write must not record a response")
	}
	if e.Done() != 2 {
		t.Fatalf("Done() = %d, want accept cycle 2", e.Done())
	}
	if len(e.Data) != 1 || e.Data[0] != 0x111 {
		t.Fatalf("write data not recorded: %v", e.Data)
	}
}

func TestMonitorRecordsReadResponse(t *testing.T) {
	var cycle uint64
	p := &scriptPort{}
	m := NewMonitor(p, func() uint64 { return cycle })
	m.Record()

	req := &Request{Cmd: Read, Addr: 0x104, Burst: 1}
	if !m.TryRequest(req) {
		t.Fatal("expected immediate accept")
	}
	// No event yet: reads complete at response time.
	if len(m.Events()) != 0 {
		t.Fatal("read event recorded before response")
	}
	cycle = 4
	p.resp = &Response{Data: []uint32{0x088000f0}}
	p.respReady = true
	resp, ok := m.TakeResponse()
	if !ok || resp.Data[0] != 0x088000f0 {
		t.Fatal("response not passed through")
	}
	evs := m.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1", len(evs))
	}
	e := evs[0]
	if !e.HasResp || e.Resp != 4 || e.Done() != 4 {
		t.Fatalf("resp cycle = %d hasResp=%v", e.Resp, e.HasResp)
	}
	if e.Data[0] != 0x088000f0 {
		t.Fatalf("read data not recorded: %v", e.Data)
	}
}

func TestMonitorPassThroughTransparency(t *testing.T) {
	// The monitor must forward every call verbatim, accept/reject included.
	var cycle uint64
	p := &scriptPort{acceptAfter: 1}
	m := NewMonitor(p, func() uint64 { return cycle })
	req := &Request{Cmd: Read, Addr: 0, Burst: 1}
	if m.TryRequest(req) {
		t.Fatal("first try should be rejected (pass-through)")
	}
	if !m.TryRequest(req) {
		t.Fatal("second try should be accepted (pass-through)")
	}
	if !m.Busy() {
		t.Fatal("Busy must reflect wrapped port")
	}
	if _, ok := m.TakeResponse(); ok {
		t.Fatal("TakeResponse must reflect wrapped port emptiness")
	}
}

// TestMonitorMetersWithoutRecording pins the split of duties: a monitor
// nobody asked to record still counts transactions and observes latencies,
// keeps no event log, and copies no payload.
func TestMonitorMetersWithoutRecording(t *testing.T) {
	var cycle uint64
	p := &scriptPort{}
	m := NewMonitor(p, func() uint64 { return cycle })
	m.TryRequest(&Request{Cmd: Write, Addr: 0, Burst: 1, Data: []uint32{1}})
	p.tries = 0
	m.TryRequest(&Request{Cmd: Read, Addr: 4, Burst: 1})
	cycle = 7
	p.resp, p.respReady = &Response{Data: []uint32{9}}, true
	if _, ok := m.TakeResponse(); !ok {
		t.Fatal("response not passed through")
	}
	if m.Transactions() != 2 || m.Reads() != 1 {
		t.Fatalf("metered %d transactions, %d reads; want 2, 1", m.Transactions(), m.Reads())
	}
	if h := m.LatencyHist(); h.Count() != 1 || h.Max() != 7 {
		t.Fatalf("latency histogram: %d samples, max %d; want 1, 7", h.Count(), h.Max())
	}
	if m.Events() != nil {
		t.Fatalf("a metering-only monitor logged %d events", len(m.Events()))
	}
	if m.cur.Data != nil {
		t.Fatal("a metering-only monitor copied a payload")
	}
}

// The log keeps issue order within one chunk and across many, and a read
// of Events part-way through (which joins the chunks) neither loses nor
// reorders anything logged before or after it.
func TestMonitorMultipleTransactionsInOrder(t *testing.T) {
	for _, n := range []int{5, 3000} {
		var cycle uint64
		p := &scriptPort{}
		m := NewMonitor(p, func() uint64 { return cycle })
		m.Record()
		var early []Event
		for i := 0; i < n; i++ {
			if i == n/2 {
				early = m.Events()
			}
			cycle = uint64(10 * i)
			m.TryRequest(&Request{Cmd: Write, Addr: uint32(i * 4), Burst: 1, Data: []uint32{uint32(i)}})
		}
		evs := m.Events()
		if len(evs) != n || len(early) != n/2 {
			t.Fatalf("n=%d: got %d events, %d part-way", n, len(evs), len(early))
		}
		for i, e := range evs {
			if e.Addr != uint32(i*4) || e.Assert != uint64(10*i) || e.Data[0] != uint32(i) {
				t.Fatalf("n=%d: event %d out of order: %+v", n, i, e)
			}
			if i < len(early) && early[i].Addr != e.Addr {
				t.Fatalf("n=%d: part-way event %d = %+v, later %+v", n, i, early[i], e)
			}
		}
	}
}

func TestNewMonitorNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMonitor(nil,nil) should panic")
		}
	}()
	NewMonitor(nil, nil)
}
