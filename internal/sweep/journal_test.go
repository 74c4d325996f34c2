package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"noctg/internal/guard"
	"noctg/internal/journal"
	"noctg/internal/platform"
)

// journalTestPoints is a cheap three-seed stochastic grid on the AMBA bus
// (no NoC build cost), small enough to re-run many times in the
// truncate-anywhere resume property.
func journalTestPoints() []Point {
	g := Grid{
		Workloads: []Workload{{Kind: KindStochastic, Dist: "uniform", Cores: 2, MeanGap: 6, Count: 40}},
		Fabrics:   []Fabric{{Interconnect: FabricAMBA}},
		Seeds:     []int64{1, 2, 3},
	}
	return g.Expand()
}

// renderResults is the byte-identity yardstick: the exact JSON artifact a
// result set serialises to.
func renderResults(t *testing.T, results []Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, results); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestJournaledMatchesPlain: a fault-free journaled run produces the same
// artifact bytes as an unjournaled one — the journal is pure bookkeeping.
func TestJournaledMatchesPlain(t *testing.T) {
	pts := journalTestPoints()
	plain, err := Runner{Workers: 2}.Run(pts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sweep.journal")
	journaled, status, err := Runner{Workers: 2}.RunJournaled(pts, JournalConfig{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if status.Ran != len(pts) || status.Resumed != 0 || status.Skipped != 0 {
		t.Fatalf("status %+v, want all %d points ran", status, len(pts))
	}
	if a, b := renderResults(t, plain), renderResults(t, journaled); !bytes.Equal(a, b) {
		t.Fatalf("journaled artifact diverged:\n%s\nvs\n%s", b, a)
	}
	// A second fresh run must refuse the existing journal.
	if _, _, err := (Runner{}).RunJournaled(pts, JournalConfig{Path: path}); err == nil {
		t.Fatal("fresh journaled run clobbered an existing journal")
	}
	// A full resume re-runs nothing and matches again.
	resumed, status, err := Runner{Workers: 2}.Resume(pts, path)
	if err != nil {
		t.Fatal(err)
	}
	if status.Ran != 0 || status.Resumed != len(pts) {
		t.Fatalf("complete-journal resume status %+v", status)
	}
	if a, b := renderResults(t, plain), renderResults(t, resumed); !bytes.Equal(a, b) {
		t.Fatal("resumed artifact diverged from the plain run")
	}
}

// TestResumeTruncateAnywhere is the kill-anywhere property in-process:
// truncating the journal at every record boundary (and mid-record, the
// torn-write case) then resuming yields artifacts byte-identical to the
// uninterrupted run, across worker counts and kernels.
func TestResumeTruncateAnywhere(t *testing.T) {
	pts := journalTestPoints()
	dir := t.TempDir()
	full := filepath.Join(dir, "full.journal")
	baselineRes, _, err := Runner{Workers: 2}.RunJournaled(pts, JournalConfig{Path: full})
	if err != nil {
		t.Fatal(err)
	}
	baseline := renderResults(t, baselineRes)
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	// Cut at 0, at every record boundary, and 3 bytes past each boundary
	// (a torn record).
	cuts := []int{0}
	for i, b := range data {
		if b == '\n' {
			cuts = append(cuts, i+1)
			if i+4 < len(data) {
				cuts = append(cuts, i+4)
			}
		}
	}
	runners := []Runner{
		{Workers: 1},
		{Workers: 3, Kernel: platform.KernelStrict},
	}
	for ci, cut := range cuts {
		r := runners[ci%len(runners)]
		path := filepath.Join(dir, "cut.journal")
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		res, status, err := r.Resume(pts, path)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if got := renderResults(t, res); !bytes.Equal(baseline, got) {
			t.Fatalf("cut at %d: resumed artifact diverged:\n%s\nvs\n%s", cut, got, baseline)
		}
		if status.Resumed+status.Ran < len(pts) {
			t.Fatalf("cut at %d: %+v does not cover %d points", cut, status, len(pts))
		}
		os.Remove(path)
	}
}

// TestJournaledDrain: an interrupt stops new points, completes in-flight
// ones, flushes the journal, and a later resume finishes the campaign
// byte-identically.
func TestJournaledDrain(t *testing.T) {
	pts := journalTestPoints()
	plain, err := Runner{Workers: 2}.Run(pts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "drain.journal")
	var polled atomic.Int32
	r := Runner{Workers: 1, Interrupted: func() bool {
		// First poll admits one point; every later poll drains.
		return polled.Add(1) > 1
	}}
	partial, status, err := r.RunJournaled(pts, JournalConfig{Path: path})
	if !errors.Is(err, ErrDrained) {
		t.Fatalf("drained run returned %v, want ErrDrained", err)
	}
	if status.Ran != 1 || status.Skipped != 2 {
		t.Fatalf("drain status %+v, want 1 ran / 2 skipped", status)
	}
	_ = partial
	resumed, status, err := Runner{Workers: 2}.Resume(pts, path)
	if err != nil {
		t.Fatal(err)
	}
	if status.Resumed != 1 || status.Ran != 2 {
		t.Fatalf("post-drain resume status %+v", status)
	}
	if a, b := renderResults(t, plain), renderResults(t, resumed); !bytes.Equal(a, b) {
		t.Fatal("post-drain resume diverged from the plain run")
	}
}

// TestResumeRejectsDifferentCampaign: a journal can only resume the point
// set that wrote it.
func TestResumeRejectsDifferentCampaign(t *testing.T) {
	pts := journalTestPoints()
	path := filepath.Join(t.TempDir(), "sweep.journal")
	if _, _, err := (Runner{Workers: 2}).RunJournaled(pts, JournalConfig{Path: path}); err != nil {
		t.Fatal(err)
	}
	other := journalTestPoints()
	other[0].Seed = 99
	if _, _, err := (Runner{}).Resume(other, path); err == nil {
		t.Fatal("journal resumed a different campaign")
	}
}

// TestPointKeyExecutionOnlyKnobs: the execution knobs live on the Runner,
// so they cannot reach a point's journal key — a campaign resumes across
// -shards/-retries/-kernel changes. The key is the hash of the whole Point,
// and two literal keys computed before Point shed its Shards/Retry fields
// prove journals written by older builds still resume. Identity fields
// change the key.
func TestPointKeyExecutionOnlyKnobs(t *testing.T) {
	p := journalTestPoints()[0]
	base := PointKey(p)
	if want := "a7cb589a3053eb3f1b26486ab59e6380e7930348f5e5e9e33738ab8e7ed41381"; base != want {
		t.Fatalf("point key %s, want the pre-existing journals' %s", base, want)
	}
	q := ScenarioGrid().Expand()[1]
	q.Measure = &Measure{WarmupCycles: 100, EpochCycles: 200, Epochs: 2}
	q.Analytic = true
	if got, want := PointKey(q), "01f01ebfdc2bf164f06d05156188f9a36624a0ecb375ce8b3fe3f597b033ba5a"; got != want {
		t.Fatalf("phased analytic point key %s, want the pre-existing journals' %s", got, want)
	}
	buf, err := json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, knob := range []string{"shards", "retry"} {
		if bytes.Contains(buf, []byte(knob)) {
			t.Fatalf("execution knob %q in the point's JSON: %s", knob, buf)
		}
	}
	q = p
	q.Seed++
	if PointKey(q) == base {
		t.Fatal("seed change kept the point key")
	}
}

// TestResumeAcrossShardCounts: the shard count is a Runner knob like the
// worker count, so a campaign journaled under one count and cut at any
// record boundary must resume under another — 0 (one engine) and 2, in
// both directions — into artifacts byte-identical to an uninterrupted run.
func TestResumeAcrossShardCounts(t *testing.T) {
	pts := Grid{
		Workloads: []Workload{{Kind: KindStochastic, Dist: "poisson", Cores: 4, MeanGap: 5, Count: 40,
			Pattern: "transpose", PatternW: 2, PatternH: 2}},
		Fabrics: []Fabric{{Interconnect: FabricXPipes, MeshWidth: 4, MeshHeight: 3, BufferFlits: 2}},
		Seeds:   []int64{1, 2, 3},
	}.Expand()
	plain, err := Runner{Workers: 2}.Run(pts)
	if err != nil {
		t.Fatal(err)
	}
	baseline := renderResults(t, plain)
	dir := t.TempDir()
	for _, tc := range []struct{ from, to int }{{0, 2}, {2, 0}} {
		full := filepath.Join(dir, "full.journal")
		if _, _, err := (Runner{Workers: 1, Shards: tc.from}).RunJournaled(pts, JournalConfig{Path: full}); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(full)
		if err != nil {
			t.Fatal(err)
		}
		os.Remove(full)
		for i, b := range data {
			if b != '\n' {
				continue
			}
			path := filepath.Join(dir, "cut.journal")
			if err := os.WriteFile(path, data[:i+1], 0o644); err != nil {
				t.Fatal(err)
			}
			res, _, err := Runner{Workers: 2, Shards: tc.to}.Resume(pts, path)
			if err != nil {
				t.Fatalf("shards %d -> %d, cut at %d: %v", tc.from, tc.to, i+1, err)
			}
			if got := renderResults(t, res); !bytes.Equal(baseline, got) {
				t.Fatalf("shards %d -> %d, cut at %d: resumed artifact diverged:\n%s\nvs\n%s",
					tc.from, tc.to, i+1, got, baseline)
			}
			os.Remove(path)
		}
	}
}

// TestRetryTransientPanicRecovers: a worker panic on the first attempt
// (injected via a panicking fault hook) classifies transient, retries
// without the fault stimulus, and ends byte-identical to a clean run.
func TestRetryTransientPanicRecovers(t *testing.T) {
	pts := journalTestPoints()[:1]
	clean, err := Runner{}.Run(pts)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int32
	r := Runner{
		Retry:  &RetryPolicy{MaxAttempts: 2},
		Faults: func(Point) *guard.FaultPlan { calls.Add(1); panic("injected worker panic") },
	}
	var attempts []int
	res, last, err := r.runPointRetry(&programCache{}, pts[0], true, 0, func(a int) error {
		attempts = append(attempts, a)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != "" {
		t.Fatalf("retried point still failed: %q", res.Err)
	}
	if last != 2 || len(attempts) != 2 || attempts[0] != 1 || attempts[1] != 2 {
		t.Fatalf("attempts %v (last %d), want [1 2]", attempts, last)
	}
	if calls.Load() != 1 {
		t.Fatalf("fault hook called %d times, want 1 (first attempt only)", calls.Load())
	}
	a, _ := json.Marshal(clean[0])
	b, _ := json.Marshal(res)
	if !bytes.Equal(a, b) {
		t.Fatalf("recovered result diverged from the clean run:\n%s\nvs\n%s", b, a)
	}
}

// TestRetryQuarantinesDeterministic: a deadlock violation is a property
// of the configuration — one attempt, immediate quarantine, no matter the
// retry budget.
func TestRetryQuarantinesDeterministic(t *testing.T) {
	pts := guardTestPoints()[:1]
	cfg := guard.Config{NoRetireHorizon: 2000}
	r := Runner{
		Guard: &cfg,
		Retry: &RetryPolicy{MaxAttempts: 3},
		Faults: func(Point) *guard.FaultPlan {
			return &guard.FaultPlan{SlaveFreezes: []guard.SlaveFreeze{
				{Node: guardSharedNode, From: 0, To: 1 << 62}}}
		},
	}
	var attempts int
	res, last, err := r.runPointRetry(&programCache{}, pts[0], true, 0, func(int) error {
		attempts++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil || res.Violation.Kind != guard.KindDeadlock {
		t.Fatalf("expected a deadlock violation, got %+v", res.Violation)
	}
	if attempts != 1 || last != 1 {
		t.Fatalf("deterministic failure took %d attempts, want 1", attempts)
	}
	if outcome, kind := journalOutcome(res); outcome != journal.OutcomeQuarantined || kind != string(guard.KindDeadlock) {
		t.Fatalf("outcome %s/%s, want quarantined/deadlock", outcome, kind)
	}
}

// TestRetryDeadlineBudget: the per-point deadline rides guard.RunBudget
// (arming a budget-only guard when the runner has none), classifies
// transient, and the fault-free retry under the strict-kernel fallback
// succeeds.
func TestRetryDeadlineBudget(t *testing.T) {
	pts := guardTestPoints()[:1]
	r := Runner{
		Kernel:    platform.KernelStrict,
		MaxCycles: 1 << 40,
		Retry:     &RetryPolicy{MaxAttempts: 2, DeadlineMS: 300},
		Faults: func(Point) *guard.FaultPlan {
			return &guard.FaultPlan{SlaveFreezes: []guard.SlaveFreeze{
				{Node: guardSharedNode, From: 0, To: 1 << 62}}}
		},
	}
	cache := &programCache{}
	res, last, err := r.runPointRetry(cache, pts[0], true, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The first attempt is wedged by the frozen slave until the deadline
	// fires; assert the end state: recovered within two attempts, no
	// residual violation.
	if res.Err != "" || res.Violation != nil {
		t.Fatalf("deadline retry did not recover: err=%q violation=%+v", res.Err, res.Violation)
	}
	if last != 2 {
		t.Fatalf("recovered on attempt %d, want 2", last)
	}
}

// TestWriteArtifactsNoPartialOnFailure: a renderer failing mid-stream (a
// NaN float is unmarshalable JSON) must leave no artifact file at all —
// the atomic writer only renames complete renders into place.
func TestWriteArtifactsNoPartialOnFailure(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "results")
	bad := []Result{{ID: 1, ThroughputTPK: math.NaN()}}
	if err := WriteArtifacts(base, bad); err == nil {
		t.Fatal("NaN result serialised cleanly")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Fatalf("failed write left %v behind", names)
	}
	// Same base succeeds afterwards with good data: nothing is wedged.
	if err := WriteArtifacts(base, []Result{{ID: 1}}); err != nil {
		t.Fatal(err)
	}
}

// TestRunDrained: the pool-level drain primitive marks unstarted tasks
// ErrDrained and never tears a started one.
func TestRunDrained(t *testing.T) {
	var started atomic.Int32
	tasks := make([]func() error, 5)
	for i := range tasks {
		tasks[i] = func() error { started.Add(1); return nil }
	}
	var polls atomic.Int32
	errs := RunDrained(1, tasks, func() bool { return polls.Add(1) > 2 })
	var drained int
	for _, err := range errs {
		if errors.Is(err, ErrDrained) {
			drained++
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if drained != 3 || started.Load() != 2 {
		t.Fatalf("%d drained / %d started, want 3 / 2", drained, started.Load())
	}
}
