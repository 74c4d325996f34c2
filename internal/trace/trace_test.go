package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"noctg/internal/ocp"
	"noctg/internal/sim"
)

func sampleEvents() []ocp.Event {
	return []ocp.Event{
		{Cmd: ocp.Read, Addr: 0x104, Burst: 1, Assert: 11, Accept: 12, Resp: 15,
			HasResp: true, Data: []uint32{0x088000f0}},
		{Cmd: ocp.Write, Addr: 0x20, Burst: 1, Assert: 18, Accept: 19, Data: []uint32{0x111}},
		{Cmd: ocp.BurstRead, Addr: 0x1000, Burst: 4, Assert: 28, Accept: 29, Resp: 40,
			HasResp: true, Data: []uint32{1, 2, 3, 4}},
		{Cmd: ocp.BurstWrite, Addr: 0x2000, Burst: 2, Assert: 50, Accept: 55, Data: []uint32{7, 8}},
	}
}

// events copies t's events into a flat slice, for comparing whole traces.
func events(t *Trace) []ocp.Event {
	var evs []ocp.Event
	for i := range t.Len() {
		evs = append(evs, *t.At(i))
	}
	return evs
}

func TestWriteParseRoundTrip(t *testing.T) {
	tr := New(3, sim.DefaultClock, ocp.LogOf(sampleEvents()))
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(&buf)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, buf.String())
	}
	if got.MasterID != 3 || got.Clock.PeriodNS != 5 {
		t.Fatalf("header lost: master=%d clock=%d", got.MasterID, got.Clock.PeriodNS)
	}
	want := sampleEvents()
	if !reflect.DeepEqual(events(got), want) {
		t.Fatalf("events differ:\n got %+v\nwant %+v", events(got), want)
	}
}

func TestFormatLooksLikeFig3a(t *testing.T) {
	tr := New(0, sim.DefaultClock, ocp.LogOf(sampleEvents()[:2]))
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"RD 0x00000104 @55ns",
		"RSP 0x088000f0 @75ns",
		"WR 0x00000020 0x00000111 @90ns",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"unknown record", "XX 0x0 @0ns acc@0ns"},
		{"orphan rsp", "RSP 0x1 @10ns"},
		{"bad addr", "RD zzz @0ns acc@0ns"},
		{"bad burst", "BRD 0x0 +x @0ns acc@0ns"},
		{"write data mismatch", "BWR 0x0 +3 0x1 @0ns acc@0ns"},
		{"read without response", "RD 0x0 @0ns acc@0ns"},
		{"missing address", "RD"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Parse(strings.NewReader(c.src)); err == nil {
				t.Fatalf("expected error for %q", c.src)
			}
		})
	}
}

func TestValidate(t *testing.T) {
	tr := New(0, sim.DefaultClock, ocp.LogOf(sampleEvents()))
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := New(0, sim.DefaultClock, ocp.LogOf([]ocp.Event{
		{Cmd: ocp.Read, Addr: 0, Burst: 1, Assert: 10, Accept: 5, Resp: 20, HasResp: true},
	}))
	if err := bad.Validate(); err == nil {
		t.Fatal("accept before assert should fail validation")
	}
	overlap := New(0, sim.DefaultClock, ocp.LogOf([]ocp.Event{
		{Cmd: ocp.Read, Addr: 0, Burst: 1, Assert: 10, Accept: 11, Resp: 20, HasResp: true, Data: []uint32{0}},
		{Cmd: ocp.Read, Addr: 0, Burst: 1, Assert: 15, Accept: 16, Resp: 30, HasResp: true, Data: []uint32{0}},
	}))
	if err := overlap.Validate(); err == nil {
		t.Fatal("overlapping transactions should fail validation")
	}
}

func TestSpan(t *testing.T) {
	tr := New(0, sim.DefaultClock, ocp.LogOf(sampleEvents()))
	if tr.Span() != 55 {
		t.Fatalf("span = %d, want accept of last write (55)", tr.Span())
	}
	if (&Trace{}).Span() != 0 {
		t.Fatal("empty trace span should be 0")
	}
}

func TestRoundTripRandomProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		var evs []ocp.Event
		now := uint64(rng.Intn(5))
		for i := 0; i < rng.Intn(30); i++ {
			kind := rng.Intn(4)
			e := ocp.Event{Addr: uint32(rng.Intn(1<<20) * 4), Burst: 1}
			e.Assert = now + uint64(1+rng.Intn(10))
			e.Accept = e.Assert + uint64(rng.Intn(5))
			switch kind {
			case 0:
				e.Cmd = ocp.Read
				e.HasResp = true
				e.Resp = e.Accept + uint64(1+rng.Intn(20))
				e.Data = []uint32{rng.Uint32()}
			case 1:
				e.Cmd = ocp.Write
				e.Data = []uint32{rng.Uint32()}
			case 2:
				e.Cmd = ocp.BurstRead
				e.Burst = 1 + rng.Intn(8)
				e.HasResp = true
				e.Resp = e.Accept + uint64(1+rng.Intn(20))
				e.Data = make([]uint32, e.Burst)
				for k := range e.Data {
					e.Data[k] = rng.Uint32()
				}
			case 3:
				e.Cmd = ocp.BurstWrite
				e.Burst = 1 + rng.Intn(8)
				e.Data = make([]uint32, e.Burst)
				for k := range e.Data {
					e.Data[k] = rng.Uint32()
				}
			}
			evs = append(evs, e)
			now = e.Done()
		}
		tr := New(2, sim.DefaultClock, ocp.LogOf(evs))
		if err := tr.Validate(); err != nil {
			t.Fatalf("generated trace invalid: %v", err)
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := Parse(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != len(evs) {
			t.Fatalf("trial %d: %d events round-tripped to %d", trial, len(evs), got.Len())
		}
		if !reflect.DeepEqual(events(got), evs) {
			t.Fatalf("trial %d: events differ", trial)
		}
	}
}

// writeFmt is the fmt-based .trc renderer Write replaced, kept as the
// oracle Write must match byte for byte.
func writeFmt(t *Trace, w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "; noctg trace v1\n")
	fmt.Fprintf(bw, "; master %d clockns %d\n", t.MasterID, t.Clock.PeriodNS)
	ns := t.Clock.NS
	for i := range t.Len() {
		e := t.At(i)
		switch e.Cmd {
		case ocp.Read:
			fmt.Fprintf(bw, "RD 0x%08x @%dns acc@%dns\n", e.Addr, ns(e.Assert), ns(e.Accept))
		case ocp.BurstRead:
			fmt.Fprintf(bw, "BRD 0x%08x +%d @%dns acc@%dns\n", e.Addr, e.Burst, ns(e.Assert), ns(e.Accept))
		case ocp.Write:
			fmt.Fprintf(bw, "WR 0x%08x 0x%08x @%dns acc@%dns\n", e.Addr, e.Data[0], ns(e.Assert), ns(e.Accept))
		case ocp.BurstWrite:
			fmt.Fprintf(bw, "BWR 0x%08x +%d%s @%dns acc@%dns\n", e.Addr, e.Burst, fmtDataList(e.Data), ns(e.Assert), ns(e.Accept))
		default:
			return fmt.Errorf("trace: event %d has invalid command %v", i, e.Cmd)
		}
		if e.HasResp {
			fmt.Fprintf(bw, "RSP%s @%dns\n", fmtDataList(e.Data), ns(e.Resp))
		}
	}
	return bw.Flush()
}

func fmtDataList(data []uint32) string {
	var b strings.Builder
	for _, d := range data {
		fmt.Fprintf(&b, " 0x%08x", d)
	}
	return b.String()
}

// requireOracle fails unless Write renders tr exactly as writeFmt does, in
// as many bytes as Size counts.
func requireOracle(t *testing.T, tr *Trace) {
	t.Helper()
	var got, want bytes.Buffer
	if err := tr.Write(&got); err != nil {
		t.Fatal(err)
	}
	if err := writeFmt(tr, &want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("Write differs from the fmt renderer:\n got %q\nwant %q", got.String(), want.String())
	}
	if n, err := tr.Size(); err != nil || n != got.Len() {
		t.Fatalf("Size = %d, %v; Write rendered %d bytes", n, err, got.Len())
	}
}

// TestWriteMatchesFmtOracle: random traces — every command, extreme
// addresses, data words and timestamps, long bursts, several clocks and
// master ids — render byte-identically to the fmt oracle, across the
// encoder's chunk boundaries.
func TestWriteMatchesFmtOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	word := func() uint32 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return ^uint32(0)
		}
		return rng.Uint32() >> uint(rng.Intn(32))
	}
	for trial := 0; trial < 200; trial++ {
		var evs []ocp.Event
		for i := rng.Intn(400); i > 0; i-- {
			e := ocp.Event{Cmd: ocp.Cmd(1 + rng.Intn(4)), Addr: word(), Burst: 1,
				Assert: rng.Uint64() >> uint(rng.Intn(64)), Accept: uint64(rng.Intn(1 << 20))}
			if e.Cmd == ocp.BurstRead || e.Cmd == ocp.BurstWrite {
				e.Burst = 1 + rng.Intn(64)
			}
			if e.Cmd.IsWrite() || rng.Intn(2) == 0 {
				for k := 0; k < e.Burst; k++ {
					e.Data = append(e.Data, word())
				}
			}
			if e.Cmd.IsRead() {
				e.HasResp, e.Resp = true, rng.Uint64()>>uint(rng.Intn(64))
			}
			evs = append(evs, e)
		}
		master := rng.Intn(64) - 8
		requireOracle(t, New(master, sim.Clock{PeriodNS: uint64(1 + rng.Intn(20))}, ocp.LogOf(evs)))
	}
	requireOracle(t, New(3, sim.DefaultClock, ocp.LogOf(sampleEvents())))
	requireOracle(t, New(0, sim.DefaultClock, ocp.LogOf(nil)))
}

// timeline returns n valid events cycling through all four commands, each
// asserted after the previous one completes.
func timeline(n int) []ocp.Event {
	evs := make([]ocp.Event, n)
	now := uint64(3)
	for i := range evs {
		e := &evs[i]
		*e = ocp.Event{Cmd: ocp.Cmd(1 + i%4), Addr: uint32(i%97) * 4, Burst: 1,
			Assert: now + uint64(i%5), Accept: now + uint64(i%5) + 1}
		if e.Cmd == ocp.BurstRead || e.Cmd == ocp.BurstWrite {
			e.Burst = 1 + i%8
		}
		for k := range e.Burst {
			e.Data = append(e.Data, uint32(i<<8|k))
		}
		if e.Cmd.IsRead() {
			e.HasResp, e.Resp = true, e.Accept+uint64(2+i%7)
		}
		now = e.Done()
	}
	return evs
}

// TestChunkBoundaries: a recorded log (chunks of 16, 16, 32, …, 512) at
// lengths on each side of its chunk boundaries reads back event for event
// as the flat slice it was built from, renders the same bytes as that
// slice's one-chunk log, in as many bytes as Size counts, and survives
// Write → Parse → Write byte for byte.
func TestChunkBoundaries(t *testing.T) {
	for _, n := range []int{0, 1, 15, 16, 17, 511, 512, 513, 1025} {
		flat := timeline(n)
		var log ocp.Log
		for _, e := range flat {
			log.Append(e)
		}
		tr := New(1, sim.DefaultClock, log)
		if err := tr.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tr.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, tr.Len())
		}
		for i := range flat {
			if !reflect.DeepEqual(*tr.At(i), flat[i]) {
				t.Fatalf("n=%d: At(%d) = %+v, want %+v", n, i, *tr.At(i), flat[i])
			}
		}
		var chunked, one, again bytes.Buffer
		if err := tr.Write(&chunked); err != nil {
			t.Fatal(err)
		}
		if err := New(1, sim.DefaultClock, ocp.LogOf(flat)).Write(&one); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(chunked.Bytes(), one.Bytes()) {
			t.Fatalf("n=%d: the chunked log renders differently from the flat one", n)
		}
		if size, err := tr.Size(); err != nil || size != chunked.Len() {
			t.Fatalf("n=%d: Size = %d, %v; Write rendered %d bytes", n, size, err, chunked.Len())
		}
		parsed, err := Parse(bytes.NewReader(chunked.Bytes()))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := parsed.Write(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), chunked.Bytes()) {
			t.Fatalf("n=%d: Write → Parse → Write changed the bytes", n)
		}
	}
}
