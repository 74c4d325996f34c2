package sweep_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"noctg/internal/journal"
	"noctg/internal/platform"
	"noctg/internal/scenario"
	"noctg/internal/sweep"
)

// This file pins the bytes of every kind of sweep point the runner can
// measure. The digests in testdata/measure_digest.json were generated at
// f6f8854, when grid and journaled points still counted their transactions
// by walking a monitor event log; a runner that fills the same Result from
// the traffic meters must reproduce them bit for bit. Regenerate (only on
// an intentional model change) with
//
//	go test ./internal/sweep -run TestMeasureDigest -update

// phasedGridJSON is the phased, back-pressured grid of the CI
// shard-determinism job (.github/workflows/ci.yml), verbatim.
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
	sum := func(write func(*bytes.Buffer) error) string {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		h := sha256.Sum256(buf.Bytes())
		return hex.EncodeToString(h[:])
	}
	return artifactDigest{
		JSON: sum(func(b *bytes.Buffer) error { return sweep.WriteJSON(b, results) }),
		CSV:  sum(func(b *bytes.Buffer) error { return sweep.WriteCSV(b, results) }),
	}
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

	path := filepath.Join("testdata", "measure_digest.json")
	if flag.Lookup("update").Value.String() == "true" {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := journal.AtomicWrite(path, append(data, '\n')); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing digest file (run with -update to create it): %v", err)
	}
	var want map[string]artifactDigest
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("digest file holds %d campaigns, the test runs %d", len(want), len(got))
	}
	for _, c := range campaigns {
		if got[c.name] != want[c.name] {
			t.Errorf("%s: artifacts drifted from the pinned digest\n got %+v\nwant %+v", c.name, got[c.name], want[c.name])
		}
	}
}

// TestTruncatedPhasedPointAcrossShards pins that a point's recorded failure
// is a function of the point, not of how it was executed: the phased point
// a 500-cycle budget cuts short serialises identically under every kernel
// and shard count (the single engine and the shard runner execute one plan,
// sim.Phases.Run, which words the error once).
func TestTruncatedPhasedPointAcrossShards(t *testing.T) {
	points := truncatedPoints(t)[1:]
	var want []byte
	for _, kernel := range []platform.KernelMode{platform.KernelStrict, platform.KernelSkip, platform.KernelEvent} {
		for _, shards := range []int{0, 1, 2} {
			results, err := sweep.Runner{Kernel: kernel, Shards: shards, MaxCycles: 500}.Run(points)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(results[0].Err, "phased measurement truncated") {
				t.Fatalf("kernel %v shards %d: err %q, want a truncated plan", kernel, shards, results[0].Err)
			}
			var buf bytes.Buffer
			if err := sweep.WriteJSON(&buf, results); err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = buf.Bytes()
			} else if !bytes.Equal(want, buf.Bytes()) {
				t.Errorf("kernel %v shards %d: truncated point differs from strict on one engine\n got %s\nwant %s",
					kernel, shards, buf.Bytes(), want)
			}
		}
	}
}
