package exp

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"noctg/internal/core"
	"noctg/internal/prog"
	"noctg/internal/simtest"
)

// This file pins the paper pipeline end to end on every DefaultSizes()
// Table 2 row: the ARM reference makespan, each master's serialised trace,
// and the TG replay's makespan, retired instructions and bus accounting. A
// change to how the pipeline is computed — the interpreter, the trace
// encoder, the translator, how the kernel schedules blocked masters — must
// leave testdata/paper_digest.json byte-unchanged.

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
		d.Traces = append(d.Traces, traceDigest{SHA256: simtest.SHA256(buf.Bytes()), Bytes: buf.Len()})
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

// TestArtifacts is the package's artifact table: the paper pipeline digest
// and the cloning baseline's reference replays.
func TestArtifacts(t *testing.T) {
	simtest.Artifacts(t,
		simtest.Artifact{Name: "paper_digest", Path: filepath.Join("testdata", "paper_digest.json"), Produce: paperDigest},
		simtest.Artifact{Name: "clone_pin", Path: clonePinPath, Produce: func(t *testing.T) []byte {
			return cloneCampaign(t)(t, simtest.Reference())
		}},
	)
}

func paperDigest(t *testing.T) []byte {
	got := map[string]paperRowDigest{}
	for _, spec := range DefaultSizes().Specs() {
		name := fmt.Sprintf("%s/%dP", spec.Name, spec.Cores)
		if _, dup := got[name]; dup {
			t.Fatalf("two Table 2 rows are named %s", name)
		}
		got[name] = digestRow(t, spec)
	}
	return simtest.JSON(t, got)
}
