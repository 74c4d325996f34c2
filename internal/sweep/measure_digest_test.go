package sweep_test

import (
	"io"
	"strings"
	"testing"

	"noctg/internal/scenario"
	"noctg/internal/simtest"
	"noctg/internal/sweep"
)

// This file pins the bytes of every kind of sweep point the runner can
// measure: testdata/measure_digest.json holds, per campaign, the sha256 of
// its JSON and CSV artifacts, which a change to how a point is measured
// must leave unchanged.

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
	return artifactDigest{JSON: simtest.SHA256(sweep.RenderResults(t, results)), CSV: simtest.SHA256(csv)}
}

const digestPath = "testdata/measure_digest.json"

// TestArtifacts is the package's artifact table: the golden rows and the
// measure digest.
func TestArtifacts(t *testing.T) {
	simtest.Artifacts(t, append(sweep.GoldenArtifacts(), simtest.Artifact{
		Name: "measure_digest", Path: digestPath,
		Produce: func(t *testing.T) []byte { return measureDigest(t, nil) },
	})...)
}

// measureDigest renders the digest file: each campaign's artifact digests,
// checking that exactly the points a budget is meant to cut short fail.
// phased, when set, stands in for the phased grid's run.
func measureDigest(t *testing.T, phased []sweep.Result) []byte {
	t.Helper()
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
		results := phased
		if c.name != "phased_grid" || phased == nil {
			if results, err = c.runner.Run(c.points); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
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
	return simtest.JSON(t, got)
}

// TestShardDifferentialGrid: the phased, back-pressured grid serialises the
// same artifact under every kernel and shard count, and the reference's
// digest is the one the measure digest pins.
func TestShardDifferentialGrid(t *testing.T) {
	all := phasedGrid(t).Expand()
	var ref []sweep.Result
	simtest.Differential(t, "phased grid", simtest.Kernel|simtest.Shards|simtest.Split, func(t *testing.T, x simtest.Exec) []byte {
		results, err := sweep.ExecRunner(t, x).Run(simtest.Items(x, all))
		if err != nil {
			t.Fatal(err)
		}
		if x == simtest.Reference() {
			ref = results
		}
		return sweep.RenderResults(t, results)
	})
	simtest.Pin(t, "measure_digest", digestPath, measureDigest(t, ref))
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
		r := sweep.ExecRunner(t, x)
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
			out = append(out, sweep.RenderResults(t, results)...)
		}
		return out
	})
}
