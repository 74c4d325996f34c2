package sweep_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"io"
	"os"
	"strings"
	"testing"

	"noctg/internal/journal"
	"noctg/internal/platform"
	"noctg/internal/scenario"
	"noctg/internal/simtest"
	"noctg/internal/sweep"
)

// This file pins the bytes of every kind of sweep point the runner can
// measure. The digests in testdata/measure_digest.json were generated at
// f6f8854, when grid and journaled points still counted their transactions
// by walking a monitor event log; a runner that fills the same Result from
// the traffic meters must reproduce them bit for bit. One hash has changed
// since: phased_grid's JSON, when stochastic points stopped wrapping their
// ports in a second meter — its duplicate "port<i>/" keys left the
// per-epoch counters, and every summary field (its CSV hash) stayed put.
// Regenerate (only on an intentional model change) with
//
//	go test ./internal/sweep -run TestMeasureDigest -update

// phasedGridJSON is a phased, back-pressured grid (1-2 flit buffers) whose
// closed workloads complete mid-epoch or in the drain, where the
// flow-control and stop rules decide every byte.
const phasedGridJSON = `{
  "workloads": [
    {"kind": "stochastic", "dist": "poisson", "cores": 4, "mean_gap": 3, "count": 300,
     "pattern": "transpose", "pattern_w": 2, "pattern_h": 2},
    {"kind": "stochastic", "dist": "bursty", "cores": 4, "mean_gap": 4, "count": 300,
     "pattern": "hotspot", "pattern_w": 2, "pattern_h": 2, "hotspot": [0, 0.7, 0, 0]}
  ],
  "fabrics": [
    {"interconnect": "xpipes", "mesh_width": 4, "mesh_height": 4, "buffer_flits": 1},
    {"interconnect": "xpipes", "topology": "torus", "mesh_width": 4, "mesh_height": 3, "buffer_flits": 2}
  ],
  "seeds": [1, 2],
  "measure": {"warmup": 211, "epoch_cycles": 517, "epochs": 12, "drain": 4099}
}`

func phasedGrid(t *testing.T) sweep.Grid {
	t.Helper()
	g, err := sweep.ParseGrid(strings.NewReader(phasedGridJSON))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// truncatedPoints returns one whole-run point and one phased point that a
// 500-cycle budget cuts short, so the digest pins both error texts.
func truncatedPoints(t *testing.T) []sweep.Point {
	t.Helper()
	whole := sweep.DefaultGrid().Expand()[0]
	phased := phasedGrid(t).Expand()[0]
	phased.ID = 1
	return []sweep.Point{whole, phased}
}

// artifactDigest is the sha256 of one result set's two artifacts.
type artifactDigest struct {
	JSON string `json:"json"`
	CSV  string `json:"csv"`
}

func digestResults(t *testing.T, results []sweep.Result) artifactDigest {
	t.Helper()
	csv := simtest.Render(t, func(w io.Writer) error { return sweep.WriteCSV(w, results) })
	return artifactDigest{JSON: sha256Hex(render(t, results)), CSV: sha256Hex(csv)}
}

func sha256Hex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

const digestPath = "testdata/measure_digest.json"

// pinnedDigests reads the committed digest file.
func pinnedDigests(t *testing.T) map[string]artifactDigest {
	t.Helper()
	data, err := os.ReadFile(digestPath)
	if err != nil {
		t.Fatalf("missing digest file (run with -update to create it): %v", err)
	}
	var want map[string]artifactDigest
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

func TestMeasureDigest(t *testing.T) {
	defaults := sweep.DefaultGrid()
	defaults.Seeds = []int64{1, 2, 3}
	library := scenario.Library()
	for i := range library {
		library[i].Seeds = []int64{1, 2}
	}
	libraryPoints, err := scenario.Points(library)
	if err != nil {
		t.Fatal(err)
	}
	campaigns := []struct {
		name   string
		runner sweep.Runner
		points []sweep.Point
		failed int // points the budget is meant to cut short
	}{
		{name: "default_grid_seeds_1_2_3", points: defaults.Expand()},
		{name: "library_seeds_1_2", points: libraryPoints},
		{name: "bursty_grid", points: sweep.BurstyGrid().Expand()},
		{name: "phased_grid", points: phasedGrid(t).Expand()},
		{name: "truncated_500_cycles", runner: sweep.Runner{MaxCycles: 500}, points: truncatedPoints(t), failed: 2},
	}
	got := make(map[string]artifactDigest)
	for _, c := range campaigns {
		results, err := c.runner.Run(c.points)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		failed := 0
		for _, r := range results {
			if r.Err != "" {
				failed++
			}
		}
		if failed != c.failed {
			t.Fatalf("%s: %d failed points, want %d", c.name, failed, c.failed)
		}
		got[c.name] = digestResults(t, results)
	}

	if flag.Lookup("update").Value.String() == "true" {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := journal.AtomicWrite(digestPath, append(data, '\n')); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", digestPath)
		return
	}
	want := pinnedDigests(t)
	if len(want) != len(got) {
		t.Errorf("digest file holds %d campaigns, the test runs %d", len(want), len(got))
	}
	for _, c := range campaigns {
		if got[c.name] != want[c.name] {
			t.Errorf("%s: artifacts drifted from the pinned digest\n got %+v\nwant %+v", c.name, got[c.name], want[c.name])
		}
	}
}

// execRunner is the Runner of one execution row.
func execRunner(t *testing.T, x simtest.Exec) sweep.Runner {
	t.Helper()
	kernel, err := platform.ParseKernel(x.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	return sweep.Runner{Kernel: kernel, Shards: x.Shards, Workers: x.Workers}
}

// render is the JSON artifact of a result set.
func render(t *testing.T, results []sweep.Result) []byte {
	return simtest.Render(t, func(w io.Writer) error { return sweep.WriteJSON(w, results) })
}

// TestShardDifferentialGrid: the phased, back-pressured grid serialises the
// same artifact under every kernel and shard count, and the reference is
// the pinned digest.
func TestShardDifferentialGrid(t *testing.T) {
	all := phasedGrid(t).Expand()
	ref := simtest.Differential(t, "phased grid", simtest.Kernel|simtest.Shards|simtest.Split, func(t *testing.T, x simtest.Exec) []byte {
		results, err := execRunner(t, x).Run(simtest.Items(x, all))
		if err != nil {
			t.Fatal(err)
		}
		return render(t, results)
	})
	if got, want := sha256Hex(ref), pinnedDigests(t)["phased_grid"].JSON; got != want {
		t.Errorf("phased grid reference drifted from the pinned digest: sha256 %s, want %s", got, want)
	}
}

// TestTruncatedPhasedPointAcrossShards pins that a point's recorded failure
// is a function of the point, not of how it was executed: points a cycle
// budget cuts short serialise the same failure under every kernel and
// shard count (the single engine and the shard runner execute one plan,
// sim.Phases.Run, which words the error once). Two budgets: 500 cycles on
// the digest's truncated phased point, and 1 500 cycles on the whole phased
// grid, which ends inside the third epoch of every point.
func TestTruncatedPhasedPointAcrossShards(t *testing.T) {
	short := truncatedPoints(t)[1:]
	all := phasedGrid(t).Expand()
	simtest.Differential(t, "truncated phased points", simtest.Kernel|simtest.Shards|simtest.Split, func(t *testing.T, x simtest.Exec) []byte {
		grid := simtest.Items(x, all)
		r := execRunner(t, x)
		var out []byte
		for _, c := range []struct {
			budget uint64
			points []sweep.Point
			err    string
		}{
			{500, short, "phased measurement truncated"},
			{1500, grid, "phased measurement truncated after 3 epochs"},
		} {
			r.MaxCycles = c.budget
			results, err := r.Run(c.points)
			if err != nil {
				t.Fatal(err)
			}
			for _, res := range results {
				if !strings.Contains(res.Err, c.err) {
					t.Fatalf("%v budget %d point %d: err %q, want %q", x, c.budget, res.ID, res.Err, c.err)
				}
			}
			out = append(out, render(t, results)...)
		}
		return out
	})
}
