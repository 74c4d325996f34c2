package sweep

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"noctg/internal/guard"
	"noctg/internal/simtest"
)

// guardTestPoints is a three-seed stochastic grid on a 4x4 mesh; every
// master targets the shared RAM, which lands on node 11 of the 4-core
// floorplan (masters 0..3, privs 15..12, shared 11, semaphores 10).
func guardTestPoints() []Point {
	g := Grid{
		Workloads: []Workload{{Kind: KindStochastic, Dist: "poisson", Cores: 4, MeanGap: 4, Count: 120}},
		Fabrics:   []Fabric{{Interconnect: FabricXPipes, MeshWidth: 4, MeshHeight: 4}},
		Seeds:     []int64{1, 2, 3},
	}
	return g.Expand()
}

const guardSharedNode = 11

// TestGuardGridContinuesPastViolation: a fault plan wedges exactly one
// point; that point is recorded as failed with the typed violation and its
// diagnostic, and every other point completes normally — graceful
// degradation, not a lost sweep.
func TestGuardGridContinuesPastViolation(t *testing.T) {
	cfg := guard.Config{NoRetireHorizon: 2000}
	r := Runner{
		Workers: 2,
		Guard:   &cfg,
		Faults: func(p Point) *guard.FaultPlan {
			if p.Seed != 1 {
				return nil
			}
			return &guard.FaultPlan{SlaveFreezes: []guard.SlaveFreeze{
				{Node: guardSharedNode, From: 0, To: 1 << 62}}}
		},
	}
	results, err := r.Run(guardTestPoints())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	bad := results[0]
	if bad.Err == "" || bad.Violation == nil {
		t.Fatalf("wedged point not recorded as a violation: %+v", bad)
	}
	if bad.Violation.Kind != guard.KindDeadlock {
		t.Fatalf("wedged point violation kind %s, want %s", bad.Violation.Kind, guard.KindDeadlock)
	}
	if bad.Violation.Diag == nil {
		t.Fatal("wedged point violation carries no diagnostic")
	}
	for _, res := range results[1:] {
		if res.Err != "" || res.Violation != nil {
			t.Fatalf("healthy point %d failed: %q", res.ID, res.Err)
		}
		if res.MakespanCycles == 0 {
			t.Fatalf("healthy point %d did not run", res.ID)
		}
	}
}

// TestGuardViolationArtifactDeterministic: the partial artifact of a
// violating sweep — failed point, diagnostic dump and all — is the same
// whatever the worker count. A violation is data, not nondeterminism
// (panic stacks are excluded from JSON for exactly this reason).
func TestGuardViolationArtifactDeterministic(t *testing.T) {
	cfg := guard.Config{NoRetireHorizon: 2000}
	want := simtest.Differential(t, "violating grid", simtest.Workers, func(t *testing.T, x simtest.Exec) []byte {
		r := execRunner(t, x)
		r.Guard = &cfg
		r.Faults = func(p Point) *guard.FaultPlan {
			if p.Seed != 2 {
				return nil
			}
			return &guard.FaultPlan{LinkStalls: []guard.LinkStall{
				{Node: 0, Dir: "e", From: 0, To: 1 << 62}}}
		}
		results, err := r.Run(guardTestPoints())
		if err != nil {
			t.Fatal(err)
		}
		return renderResults(t, results)
	})
	if !bytes.Contains(want, []byte(`"violation"`)) || !bytes.Contains(want, []byte(`"diag"`)) {
		t.Fatalf("artifact lacks the structured violation: %s", want)
	}
}

// TestGuardFaultFreeArtifactsIdentical: arming the full watchdog set on a
// healthy sweep changes nothing — the guarded artifact is the same under
// every kernel, shard count and worker count, and equals the unguarded
// one.
func TestGuardFaultFreeArtifactsIdentical(t *testing.T) {
	dflt := guard.Default()
	guarded := simtest.Differential(t, "guarded grid", simtest.Kernel|simtest.Shards|simtest.Workers, func(t *testing.T, x simtest.Exec) []byte {
		r := execRunner(t, x)
		r.Guard = &dflt
		return renderResults(t, runPoints(t, r, guardTestPoints()))
	})
	if plain := pointsCampaign(guardTestPoints())(t, simtest.Reference()); !bytes.Equal(plain, guarded) {
		t.Fatalf("guarded artifact diverged from the unguarded one:\n%s\nvs\n%s", guarded, plain)
	}
}

// TestGuardInvalidFaultPlanRecorded: a fault plan the platform rejects
// (missing link) fails that point cleanly and leaves the rest of the grid
// running.
func TestGuardInvalidFaultPlanRecorded(t *testing.T) {
	cfg := guard.Default()
	r := Runner{
		Workers: 2,
		Guard:   &cfg,
		Faults: func(p Point) *guard.FaultPlan {
			if p.Seed != 3 {
				return nil
			}
			// Node 0 sits on the mesh corner: no north link exists.
			return &guard.FaultPlan{LinkStalls: []guard.LinkStall{{Node: 0, Dir: "n", From: 0, To: 100}}}
		},
	}
	results, err := r.Run(guardTestPoints())
	if err != nil {
		t.Fatal(err)
	}
	if results[2].Err == "" || !strings.Contains(results[2].Err, "missing link") {
		t.Fatalf("rejected plan not recorded: %q", results[2].Err)
	}
	if results[0].Err != "" || results[1].Err != "" {
		t.Fatalf("healthy points failed: %q, %q", results[0].Err, results[1].Err)
	}
}

// TestParseGridRejects: malformed or hostile grid files come back as
// errors — bad JSON, typoed fields, over-limit axes — never panics or
// silently shrunk grids.
func TestParseGridRejects(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string // substring the error must carry ("" = any error)
	}{
		{"empty", "", ""},
		{"not json", "workloads: none", ""},
		{"unknown field", `{"workloads":[{"kind":"stochastic","dist":"uniform","cores":2}],` +
			`"fabrics":[{"interconnect":"amba"}],"bandwidth":9}`, `unknown field "bandwidth"`},
		{"classes field", `{"workloads":[{"kind":"stochastic","dist":"poisson","cores":2,"classes":[1,1]}],` +
			`"fabrics":[{"interconnect":"amba"}]}`, `unknown field "classes"`},
		{"no fabrics", `{"workloads":[{"kind":"stochastic","dist":"uniform","cores":2}]}`, ""},
		// Execution knobs are Runner-only: a grid file cannot carry them,
		// whatever the value.
		{"shards knob", `{"workloads":[{"kind":"stochastic","dist":"uniform","cores":2}],` +
			`"fabrics":[{"interconnect":"amba"}],"shards":2}`, `unknown field "shards"`},
		{"retry knob", `{"workloads":[{"kind":"stochastic","dist":"uniform","cores":2}],` +
			`"fabrics":[{"interconnect":"amba"}],"retry":{"max_attempts":2}}`, `unknown field "retry"`},
		{"over-limit pattern grid", `{"workloads":[{"kind":"stochastic","dist":"uniform",` +
			`"cores":16777216,"pattern":"uniform","pattern_w":4096,"pattern_h":4096}],` +
			`"fabrics":[{"interconnect":"amba"}]}`, ""},
		{"pattern without grid", `{"workloads":[{"kind":"stochastic","dist":"uniform",` +
			`"cores":4,"pattern_w":2,"pattern_h":2}],"fabrics":[{"interconnect":"amba"}]}`, ""},
		{"zero clock", `{"workloads":[{"kind":"stochastic","dist":"uniform","cores":2}],` +
			`"fabrics":[{"interconnect":"amba"}],"clock_periods_ns":[0]}`, ""},
		// Each of these used to run wrongly or crash: a negative gap ran
		// at the default load, a negative count reported an ok point with
		// no transactions, a negative buffer panicked a worker, a negative
		// mesh failed at platform build, 113 cores overlapped the shared
		// RAM at bus attach, and the oversized fabrics exhausted memory.
		{"negative mean_gap", `{"workloads":[{"kind":"stochastic","dist":"poisson","cores":2,"mean_gap":-4}],` +
			`"fabrics":[{"interconnect":"amba"}]}`, "mean_gap"},
		{"negative count", `{"workloads":[{"kind":"stochastic","dist":"poisson","cores":2,"count":-7}],` +
			`"fabrics":[{"interconnect":"amba"}]}`, "count"},
		{"count over the file cap", `{"workloads":[{"kind":"stochastic","dist":"poisson","cores":2,"count":10000001}],` +
			`"fabrics":[{"interconnect":"amba"}]}`, "count"},
		{"negative buffer_flits", `{"workloads":[{"kind":"stochastic","dist":"poisson","cores":2}],` +
			`"fabrics":[{"interconnect":"xpipes","buffer_flits":-3}]}`, "buffer_flits"},
		{"negative mesh", `{"workloads":[{"kind":"stochastic","dist":"poisson","cores":2}],` +
			`"fabrics":[{"interconnect":"xpipes","mesh_width":-2,"mesh_height":4}]}`, "mesh_width"},
		{"113 cores", `{"workloads":[{"kind":"stochastic","dist":"poisson","cores":113}],` +
			`"fabrics":[{"interconnect":"amba"}]}`, "cores"},
		{"mesh over bound", `{"workloads":[{"kind":"stochastic","dist":"poisson","cores":2}],` +
			`"fabrics":[{"interconnect":"xpipes","mesh_width":1024,"mesh_height":1024}]}`, "mesh_width"},
		{"buffer over bound", `{"workloads":[{"kind":"stochastic","dist":"poisson","cores":2}],` +
			`"fabrics":[{"interconnect":"xpipes","buffer_flits":100000000}]}`, "buffer_flits"},
	}
	for _, tc := range cases {
		_, err := ParseGrid(strings.NewReader(tc.src))
		if err == nil {
			t.Errorf("%s: ParseGrid accepted %q", tc.name, tc.src)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.want)
		}
	}
}

// TestRunnerRejectsOverLimitShards: the runner's shard count is bounded at
// both ends before any point runs.
func TestRunnerRejectsOverLimitShards(t *testing.T) {
	for _, shards := range []int{MaxShards + 1, -2} {
		if _, err := (Runner{Shards: shards}).Run(guardTestPoints()); err == nil {
			t.Fatalf("runner shards %d accepted", shards)
		}
	}
}

// TestWriteArtifactsUnwritable: filesystem failures writing artifacts are
// errors, not panics, for results and curves alike.
func TestWriteArtifactsUnwritable(t *testing.T) {
	base := filepath.Join(t.TempDir(), "no", "such", "dir", "results")
	if err := WriteArtifacts(base, []Result{{ID: 1}}); err == nil {
		t.Fatal("WriteArtifacts into a missing directory succeeded")
	}
	if err := WriteCurveArtifacts(base, []Curve{{Name: "c"}}); err == nil {
		t.Fatal("WriteCurveArtifacts into a missing directory succeeded")
	}
	// The happy path round-trips.
	ok := filepath.Join(t.TempDir(), "results")
	if err := WriteArtifacts(ok, []Result{{ID: 1}}); err != nil {
		t.Fatal(err)
	}
}
