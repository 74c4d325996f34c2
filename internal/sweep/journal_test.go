package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"noctg/internal/guard"
	"noctg/internal/journal"
	"noctg/internal/ocp"
	"noctg/internal/platform"
	"noctg/internal/simtest"
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
	return simtest.Render(t, func(w io.Writer) error { return WriteJSON(w, results) })
}

// journalTestCurve is a small adaptive curve on the AMBA bus: its knee
// takes more than one lockstep round to bracket, and its fixed short
// epochs keep every resume of the truncate-anywhere property cheap.
func journalTestCurve() CurveSpec {
	cs := goldenCurveSpec()
	cs.Name = "hotspot-amba-journal"
	cs.Gaps = []float64{48, 32, 24, 16, 12, 8, 6, 4, 3, 2, 1}
	cs.Measure = Measure{WarmupCycles: 200, EpochCycles: 500, Epochs: 3}
	cs.Mode = CurveModeAdaptive
	return cs
}

// journalCampaign is one kind of journaled campaign, rendered to its JSON
// artifact: a grid of points, or curves whose load levels are the points.
type journalCampaign struct {
	name string
	// plain runs the campaign without a journal and returns the artifact
	// and the number of points it simulated.
	plain     func(*testing.T, Runner) ([]byte, int)
	journaled func(*testing.T, Runner, JournalConfig) ([]byte, JournalStatus, error)
	// rounds marks a campaign whose points are not all known up front:
	// a drain skips only the current round's points, not later rounds'.
	rounds bool
}

// gridCampaign journals a grid of points.
func gridCampaign(pts []Point) journalCampaign {
	return journalCampaign{
		name: "grid",
		plain: func(t *testing.T, r Runner) ([]byte, int) {
			res, err := r.Run(pts)
			if err != nil {
				t.Fatal(err)
			}
			return renderResults(t, res), len(pts)
		},
		journaled: func(t *testing.T, r Runner, jc JournalConfig) ([]byte, JournalStatus, error) {
			res, status, err := r.RunJournaled(pts, jc)
			return renderResults(t, res), status, err
		},
	}
}

func journalCampaigns() []journalCampaign {
	pts := journalTestPoints()
	specs := []CurveSpec{journalTestCurve()}
	renderCurves := func(t *testing.T, curves []Curve) []byte {
		return simtest.Render(t, func(w io.Writer) error { return WriteCurvesJSON(w, curves) })
	}
	return []journalCampaign{gridCampaign(pts), {
		name: "adaptive curve",
		plain: func(t *testing.T, r Runner) ([]byte, int) {
			curves, err := r.RunCurves(specs)
			if err != nil {
				t.Fatal(err)
			}
			return renderCurves(t, curves), curves[0].SimulatedLevels
		},
		journaled: func(t *testing.T, r Runner, jc JournalConfig) ([]byte, JournalStatus, error) {
			curves, status, err := r.RunCurvesJournaled(specs, jc)
			return renderCurves(t, curves), status, err
		},
		rounds: true,
	}}
}

// resumed is c as a campaign: at cut 0 one uninterrupted, unjournaled run;
// otherwise the journal crosses rows both ways — written on row x and
// resumed on the reference row, then written on the reference row and
// resumed on row x — and both must render the same bytes.
func (c journalCampaign) resumed() simtest.Campaign {
	return func(t *testing.T, x simtest.Exec) []byte {
		r, ref := execRunner(t, x), execRunner(t, simtest.Reference())
		if x.Cut == 0 {
			plain, _ := c.plain(t, r)
			return plain
		}
		got := c.crossResume(t, r, ref, x.Cut)
		if back := c.crossResume(t, ref, r, x.Cut); !bytes.Equal(got, back) {
			t.Fatalf("%v: resuming the reference row's journal diverged from resuming the row's own", x)
		}
		return got
	}
}

// crossResume journals c on writer, cuts the journal at cut percent of its
// bytes (mid-record: a torn tail) and resumes it on resumer. The writer
// then resumes the finished journal, which must find every point done and
// render the same bytes; a torn tail left behind would surface there as
// mid-file corruption.
func (c journalCampaign) crossResume(t *testing.T, writer, resumer Runner, cut int) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sweep.journal")
	_, full, err := c.journaled(t, writer, JournalConfig{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if full.Resumed != 0 || full.Skipped != 0 {
		t.Fatalf("fresh journaled run status %+v", full)
	}
	if _, _, err := c.journaled(t, writer, JournalConfig{Path: path}); err == nil {
		t.Fatal("fresh journaled run clobbered an existing journal")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)*cut/100], 0o644); err != nil {
		t.Fatal(err)
	}
	got, status, err := c.journaled(t, resumer, JournalConfig{Path: path, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if status.Resumed+status.Ran < full.Ran {
		t.Fatalf("resume %+v does not cover the %d points", status, full.Ran)
	}
	again, status, err := c.journaled(t, writer, JournalConfig{Path: path, Resume: true})
	if err != nil {
		t.Fatalf("resuming the finished journal: %v", err)
	}
	if status.Ran != 0 || status.Resumed != full.Ran {
		t.Fatalf("finished-journal resume status %+v, want all %d points resumed", status, full.Ran)
	}
	if !bytes.Equal(got, again) {
		t.Fatal("finished-journal resume diverged from the resumed run")
	}
	return got
}

// TestJournaledMatchesPlain: the journal is pure bookkeeping. A grid or an
// adaptive curve, journaled, cut anywhere and resumed, serialises the same
// artifact as an unjournaled run under every kernel and worker count.
func TestJournaledMatchesPlain(t *testing.T) {
	for _, c := range journalCampaigns() {
		t.Run(c.name, func(t *testing.T) {
			simtest.Differential(t, c.name, simtest.Kernel|simtest.Workers|simtest.Resume, c.resumed())
		})
	}
}

// TestResumeTruncateAnywhere is the kill-anywhere property in-process:
// truncating the journal at every record boundary (and mid-record, the
// torn-write case) then resuming yields artifacts byte-identical to the
// uninterrupted run — for a grid, and for adaptive curves, whose resume
// replays the lockstep rounds.
func TestResumeTruncateAnywhere(t *testing.T) {
	for _, c := range journalCampaigns() {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			full := filepath.Join(dir, "full.journal")
			baseline, status, err := c.journaled(t, Runner{Workers: 2}, JournalConfig{Path: full})
			if err != nil {
				t.Fatal(err)
			}
			n := status.Ran
			data, err := os.ReadFile(full)
			if err != nil {
				t.Fatal(err)
			}
			// Cut at 0, at every record boundary, and 3 bytes past each
			// boundary (a torn record).
			cuts := []int{0}
			for i, b := range data {
				if b == '\n' {
					cuts = append(cuts, i+1)
					if i+4 < len(data) {
						cuts = append(cuts, i+4)
					}
				}
			}
			for _, cut := range cuts {
				path := filepath.Join(dir, "cut.journal")
				if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				got, status, err := c.journaled(t, Runner{Workers: 1}, JournalConfig{Path: path, Resume: true})
				if err != nil {
					t.Fatalf("cut at %d: %v", cut, err)
				}
				if !bytes.Equal(baseline, got) {
					t.Fatalf("cut at %d: resumed artifact diverged:\n%s\nvs\n%s", cut, got, baseline)
				}
				if status.Resumed+status.Ran < n {
					t.Fatalf("cut at %d: %+v does not cover %d points", cut, status, n)
				}
				os.Remove(path)
			}
		})
	}
}

// TestJournaledDrain: an interrupt stops new points, completes in-flight
// ones, flushes the journal, and a later resume finishes the campaign —
// grid or curves — byte-identically.
func TestJournaledDrain(t *testing.T) {
	for _, c := range journalCampaigns() {
		t.Run(c.name, func(t *testing.T) {
			plain, n := c.plain(t, Runner{Workers: 2})
			path := filepath.Join(t.TempDir(), "drain.journal")
			var polled atomic.Int32
			r := Runner{Workers: 1, Interrupted: func() bool {
				// First poll admits one point; every later poll drains.
				return polled.Add(1) > 1
			}}
			_, status, err := c.journaled(t, r, JournalConfig{Path: path})
			if !errors.Is(err, ErrDrained) {
				t.Fatalf("drained run returned %v, want ErrDrained", err)
			}
			// A grid skips every other point. A curve drains inside its
			// first round, so the levels of later rounds are not even
			// pending yet.
			minSkipped := n - 1
			if c.rounds {
				minSkipped = 1
			}
			if status.Ran != 1 || status.Skipped < minSkipped || status.Skipped > n-1 {
				t.Fatalf("drain status %+v, want 1 ran / %d..%d skipped", status, minSkipped, n-1)
			}
			resumed, status, err := c.journaled(t, Runner{Workers: 2}, JournalConfig{Path: path, Resume: true})
			if err != nil {
				t.Fatal(err)
			}
			if status.Resumed != 1 || status.Ran != n-1 {
				t.Fatalf("post-drain resume status %+v", status)
			}
			if !bytes.Equal(plain, resumed) {
				t.Fatal("post-drain resume diverged from the plain run")
			}
		})
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
// worker count, so a ×pipes campaign — a TG replay of a paper program and
// stochastic points — journaled under one kernel, shard count and worker
// count, cut and resumed under another, serialises the same artifact as an
// uninterrupted run.
func TestResumeAcrossShardCounts(t *testing.T) {
	pts := Grid{
		Workloads: []Workload{
			{Kind: KindTG, Bench: "mpmatrix", Cores: 2, Size: 2},
			{Kind: KindStochastic, Dist: "poisson", Cores: 4, MeanGap: 5, Count: 40,
				Pattern: "transpose", PatternW: 2, PatternH: 2},
		},
		Fabrics: []Fabric{{Interconnect: FabricXPipes, MeshWidth: 4, MeshHeight: 3, BufferFlits: 2}},
		Seeds:   []int64{1, 2, 3},
	}.Expand()
	simtest.Differential(t, "xpipes grid", simtest.Kernel|simtest.Shards|simtest.Workers|simtest.Resume, gridCampaign(pts).resumed())
}

// TestRetryTransientPanicRecovers: a worker panic on the first attempt
// (a master wrapper that panics while the point is built) classifies
// transient, retries without it, and ends byte-identical to a clean run.
func TestRetryTransientPanicRecovers(t *testing.T) {
	pts := journalTestPoints()[:1]
	clean, err := Runner{}.Run(pts)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int32
	r := Runner{
		Retry: &RetryPolicy{MaxAttempts: 2},
		wrap: func(_ Point, attempt int, m platform.Master) platform.Master {
			if attempt == 1 {
				calls.Add(1)
				panic("injected worker panic")
			}
			return m
		},
	}
	var attempts []int
	res, last, err := r.runPointRetry(&programCache{}, pts[0], 0, func(a int) error {
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
		t.Fatalf("wrapper panicked %d times, want 1 (first attempt only)", calls.Load())
	}
	a, _ := json.Marshal(clean[0])
	b, _ := json.Marshal(res)
	if !bytes.Equal(a, b) {
		t.Fatalf("recovered result diverged from the clean run:\n%s\nvs\n%s", b, a)
	}
}

// TestRetryQuarantinesDeterministic: a deadlock violation is a property
// of the configuration (here, frozen memories) — one attempt, immediate
// quarantine, no matter the retry budget.
func TestRetryQuarantinesDeterministic(t *testing.T) {
	pts := frozen(guardTestPoints()[:1], 0)
	cfg := guard.Config{NoRetireHorizon: 2000}
	r := Runner{Guard: &cfg, Retry: &RetryPolicy{MaxAttempts: 3}}
	var attempts int
	res, last, err := r.runPointRetry(&programCache{}, pts[0], 0, func(int) error {
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

// endless wraps a master so that it never reports done. It declares
// itself always awake on purpose: with the generator's own NextWake the
// event kernel would see a finished generator sleep forever and
// jump straight to the cycle budget, so the run would end on the cycle
// limit, not on the wall-clock budget this test exercises. The embedded
// meter keeps the point measurable.
type endless struct {
	platform.Master
	ocp.TrafficMeter
}

func (endless) Done() bool { return false }

func (endless) NextWake(now uint64) uint64 { return now }

// TestRetryDeadlineBudget: a budget-only guard (what -run-budget arms
// without -guard) bounds each attempt's wall clock, the blown budget
// classifies transient, and the unwrapped retry on the runner's own
// kernel succeeds.
func TestRetryDeadlineBudget(t *testing.T) {
	pts := guardTestPoints()[:1]
	simtest.Differential(t, "deadline retry", simtest.Kernel, func(t *testing.T, x simtest.Exec) []byte {
		kernel, err := platform.ParseKernel(x.Kernel)
		if err != nil {
			t.Fatal(err)
		}
		r := Runner{
			Kernel:    kernel,
			MaxCycles: 1 << 40,
			Guard:     &guard.Config{RunBudget: 300 * time.Millisecond},
			Retry:     &RetryPolicy{MaxAttempts: 2},
			wrap: func(_ Point, attempt int, m platform.Master) platform.Master {
				if attempt == 1 {
					return endless{m, m.(ocp.TrafficMeter)}
				}
				return m
			},
		}
		res, last, err := r.runPointRetry(&programCache{}, pts[0], 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		// The first attempt never finishes, so the budget fires; assert the
		// end state: recovered within two attempts, no residual violation.
		if res.Err != "" || res.Violation != nil {
			t.Fatalf("%v: deadline retry did not recover: err=%q violation=%+v", x, res.Err, res.Violation)
		}
		if last != 2 {
			t.Fatalf("%v: recovered on attempt %d, want 2", x, last)
		}
		return simtest.Render(t, func(w io.Writer) error { return WriteJSON(w, []Result{res}) })
	})
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
