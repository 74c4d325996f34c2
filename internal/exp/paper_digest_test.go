package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"noctg/internal/core"
	"noctg/internal/prog"
)

// This file pins the paper pipeline end to end on every DefaultSizes()
// Table 2 row: the ARM reference makespan, each master's serialised trace,
// and the TG replay's makespan, retired instructions and bus accounting. A
// change to how the pipeline is computed — the interpreter, the trace
// encoder, the translator, how the kernel schedules blocked masters — must
// leave testdata/paper_digest.json byte-unchanged. Regenerate (only on an
// intentional model change) with
//
//	go test ./internal/exp -run TestPaperDigest -update

var update = flag.Bool("update", false, "rewrite testdata/paper_digest.json")

// traceDigest identifies one master's serialised .trc stream.
type traceDigest struct {
	SHA256 string `json:"sha256"`
	Bytes  int    `json:"bytes"`
}

// paperRowDigest is what one Table 2 row pins.
type paperRowDigest struct {
	ARMMakespan uint64        `json:"arm_makespan"`
	Traces      []traceDigest `json:"traces"`
	TGMakespan  uint64        `json:"tg_makespan"`
	InstRet     []uint64      `json:"inst_ret"`
	BusBusy     uint64        `json:"bus_busy_cycles"`
	WaitCycles  []uint64      `json:"wait_cycles"`
}

// digestRow runs one row's traced reference, translation and TG replay
// under the default options (the event kernel).
func digestRow(t *testing.T, spec *prog.Spec) paperRowDigest {
	t.Helper()
	opt := DefaultOptions()
	ref, err := RunReference(spec, opt, true)
	if err != nil {
		t.Fatal(err)
	}
	d := paperRowDigest{ARMMakespan: ref.Makespan}
	total := 0
	for _, tr := range ref.Traces {
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		d.Traces = append(d.Traces, traceDigest{SHA256: hex.EncodeToString(sum[:]), Bytes: buf.Len()})
		total += buf.Len()
		if n, err := tr.Size(); err != nil || n != buf.Len() {
			t.Fatalf("master %d: Size = %d, %v; Write rendered %d bytes", tr.MasterID, n, err, buf.Len())
		}
	}
	// TraceBytes sums the sizes without rendering: it must count exactly
	// the bytes the rendered traces hold.
	if n, err := TraceBytes(ref.Traces); err != nil || n != total {
		t.Fatalf("TraceBytes = %d, %v; the traces serialise to %d bytes", n, err, total)
	}
	progs, _, _, err := TranslateAll(spec, ref.Traces, core.DefaultTranslateConfig(PollRangesFor(spec)))
	if err != nil {
		t.Fatal(err)
	}
	tg, err := RunTG(spec, progs, opt)
	if err != nil {
		t.Fatal(err)
	}
	d.TGMakespan = tg.Makespan
	for _, m := range tg.Sys.Masters {
		d.InstRet = append(d.InstRet, m.(*core.Device).InstRet.Value())
	}
	d.BusBusy = tg.Sys.Bus.BusyCycles()
	d.WaitCycles = tg.Sys.Bus.WaitCycles()
	return d
}

// TestPaperDigest: every DefaultSizes() Table 2 row reproduces its pinned
// pipeline digest.
func TestPaperDigest(t *testing.T) {
	path := filepath.Join("testdata", "paper_digest.json")
	got := map[string]paperRowDigest{}
	for _, spec := range DefaultSizes().Specs() {
		name := fmt.Sprintf("%s/%dP", spec.Name, spec.Cores)
		if _, dup := got[name]; dup {
			t.Fatalf("two Table 2 rows are named %s", name)
		}
		got[name] = digestRow(t, spec)
	}
	if *update {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	want := map[string]paperRowDigest{}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(want) != len(got) {
		t.Errorf("%s pins %d rows, the test runs %d", path, len(want), len(got))
	}
	for name, g := range got {
		if w := want[name]; !reflect.DeepEqual(g, w) {
			t.Errorf("%s:\n got %+v\nwant %+v", name, g, w)
		}
	}
}
