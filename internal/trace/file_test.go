package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"noctg/internal/ocp"
	"noctg/internal/sim"
)

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m0.trc")
	tr := New(7, sim.DefaultClock, ocp.LogOf(sampleEvents()))

	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	g, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	got, err := Parse(g)
	if err != nil {
		t.Fatal(err)
	}
	if got.MasterID != 7 || got.Len() != tr.Len() {
		t.Fatalf("file round trip lost data: master=%d events=%d", got.MasterID, got.Len())
	}
}

func TestParseNonDefaultClock(t *testing.T) {
	src := `; noctg trace v1
; master 2 clockns 10
RD 0x00000100 @100ns acc@110ns
RSP 0x00000001 @200ns
`
	tr, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Clock.PeriodNS != 10 {
		t.Fatalf("clock = %d ns", tr.Clock.PeriodNS)
	}
	e := tr.At(0)
	if e.Assert != 10 || e.Accept != 11 || e.Resp != 20 {
		t.Fatalf("cycles wrong with 10ns clock: %+v", e)
	}
}

func TestParseToleratesBlankAndCommentLines(t *testing.T) {
	src := `
; header comment

; another

WR 0x00000010 0x00000001 @10ns acc@15ns

`
	tr, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1 {
		t.Fatalf("events = %d", tr.Len())
	}
}

func TestLargeTraceRoundTrip(t *testing.T) {
	// Tens of thousands of events: exercises the scanner buffer sizing and
	// keeps serialisation O(n).
	var evs []ocp.Event
	now := uint64(0)
	for i := 0; i < 50_000; i++ {
		e := ocp.Event{Cmd: ocp.Write, Addr: uint32(i%1024) * 4, Burst: 1,
			Data: []uint32{uint32(i)}, Assert: now + 2, Accept: now + 3}
		evs = append(evs, e)
		now = e.Done()
	}
	tr := New(0, sim.DefaultClock, ocp.LogOf(evs))
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != len(evs) {
		t.Fatalf("%d events survived of %d", got.Len(), len(evs))
	}
	if !reflect.DeepEqual(*got.At(49_999), evs[49_999]) {
		t.Fatal("tail event corrupted")
	}
}
