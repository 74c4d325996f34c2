package exp

import (
	"testing"

	"noctg/internal/core"
	"noctg/internal/layout"
	"noctg/internal/ocp"
	"noctg/internal/prog"
)

// TestFig2aPrivateSlaveTiming pins the Figure 2(a) semantics at the core
// level: a posted write releases the processor as soon as the interconnect
// accepts it, while a blocking read stalls until the response returns —
// so a program doing N dependent reads takes visibly longer than one doing
// N posted writes, and the write-then-read pattern "stalls at the slave"
// without the core observing anything but a longer response time.
func TestFig2aPrivateSlaveTiming(t *testing.T) {
	run := func(body string) uint64 {
		spec := &prog.Spec{
			Name:  "fig2a",
			Cores: 1,
			Source: `
	ldi r1, 0x08000000
	ldi r2, 42
` + body + `
	halt`,
			MaxCycles: 100_000,
		}
		ref, err := RunReference(spec, DefaultOptions(), false)
		if err != nil {
			t.Fatal(err)
		}
		return ref.Makespan
	}
	writes := run(`
	str r2, [r1+0]
	str r2, [r1+4]
	str r2, [r1+8]
	str r2, [r1+12]`)
	reads := run(`
	ldr r3, [r1+0]
	ldr r3, [r1+4]
	ldr r3, [r1+8]
	ldr r3, [r1+12]`)
	if reads <= writes {
		t.Fatalf("blocking reads (%d cycles) must be slower than posted writes (%d)", reads, writes)
	}
}

// TestFig2aTraceShape verifies the traced transaction stream of the WR/RD
// pattern matches the figure: the WR event carries no response, the RD
// does, and the RD following a WR to the same slave completes later than
// an isolated RD (the write's service time is folded into the read's
// response time — the "stalled at the slave interface" behaviour).
func TestFig2aTraceShape(t *testing.T) {
	spec := &prog.Spec{
		Name:  "fig2a-trace",
		Cores: 1,
		Source: `
	ldi r1, 0x08000000
	ldi r2, 7
	str r2, [r1+0]
	ldr r3, [r1+0]
	halt`,
		MaxCycles: 100_000,
	}
	ref, err := RunReference(spec, DefaultOptions(), true)
	if err != nil {
		t.Fatal(err)
	}
	tr := ref.Traces[0]
	// Find the shared-memory WR and the RD after it.
	var wr, rd *ocp.Event
	for i := range tr.Len() {
		if e := tr.At(i); e.Addr == layout.SharedBase {
			if e.Cmd == ocp.Write {
				wr = e
			} else if e.Cmd == ocp.Read && wr != nil {
				rd = e
			}
		}
	}
	if wr == nil || rd == nil {
		t.Fatalf("trace of %d events missing WR/RD pair", tr.Len())
	}
	if wr.HasResp {
		t.Fatal("posted write must not record a response")
	}
	if !rd.HasResp || rd.Resp <= rd.Assert {
		t.Fatal("read must record a later response")
	}
	if wr.Done() != wr.Accept {
		t.Fatal("write completion must be its acceptance")
	}
}

// TestFig2bSemaphoreReactivity is the Figure 2(b) system test on real
// hardware models: two ARM cores contend for a semaphore; the TG platform
// built from their traces must reproduce both the winner's and the
// poller's cycle behaviour, and on a slower fabric the replayed poll count
// must grow.
func TestFig2bSemaphoreReactivity(t *testing.T) {
	spec := prog.MPMatrix(2, 8) // semaphore-paced benchmark
	opt := DefaultOptions()
	ref, err := RunReference(spec, opt, true)
	if err != nil {
		t.Fatal(err)
	}
	progs, _, _, err := TranslateAll(spec, ref.Traces,
		core.DefaultTranslateConfig(PollRangesFor(spec)))
	if err != nil {
		t.Fatal(err)
	}
	// Same fabric: poll counts (semaphore read failures) comparable.
	sameRes, err := RunTG(spec, progs, opt)
	if err != nil {
		t.Fatal(err)
	}
	_, sameFails, _ := sameRes.Sys.Sems.Stats()
	// Much slower slaves: critical sections hold longer, waiters must poll
	// more; the reactive TG regenerates those extra polls.
	slow := opt
	slow.Platform.MemWaitStates = 12
	slowRes, err := RunTG(spec, progs, slow)
	if err != nil {
		t.Fatal(err)
	}
	_, slowFails, _ := slowRes.Sys.Sems.Stats()
	if slowRes.Makespan <= sameRes.Makespan {
		t.Fatal("slower slaves must lengthen the run")
	}
	t.Logf("failed polls: same fabric %d, slow fabric %d", sameFails, slowFails)
	if slowFails <= sameFails {
		t.Fatalf("reactive TGs should poll more on the slower fabric (%d vs %d)", slowFails, sameFails)
	}
}
