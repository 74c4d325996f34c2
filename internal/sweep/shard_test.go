package sweep

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"noctg/internal/platform"
)

// diffShardCounts is the partition matrix the sweep-level determinism gate
// pins. Every count is compared against shards=0 — the strict kernel on a
// single engine, the only oracle. 1 is the shard runner without a cut; the
// scenario meshes have three rows, so 3 is their finest partition and any
// larger count clamps to it (the randomized differential below and the CI
// shard-determinism job exercise 4 and 8, clamping included).
var diffShardCounts = []int{1, 2, 3}

// assertShardDifferential runs points on the strict single engine and
// asserts every kernel × shard count reproduces the Results — and the JSON
// and CSV artifacts serialised from them — byte for byte.
func assertShardDifferential(t *testing.T, points []Point, kernels []platform.KernelMode, counts []int) {
	t.Helper()
	ref, err := Runner{Kernel: platform.KernelStrict}.Run(points)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if ref[i].Err != "" {
			t.Fatalf("strict shards=0 point %d (%s @ %s): %s", i, ref[i].Workload, ref[i].Fabric, ref[i].Err)
		}
	}
	var js, cs bytes.Buffer
	if err := WriteJSON(&js, ref); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&cs, ref); err != nil {
		t.Fatal(err)
	}
	// The shard count is execution-only: it must never leak into the
	// serialised artifacts.
	if bytes.Contains(js.Bytes(), []byte("shards")) {
		t.Fatal("shard count leaked into the JSON artifact")
	}
	for _, kernel := range kernels {
		for _, shards := range counts {
			got, err := Runner{Kernel: kernel, Shards: shards}.Run(points)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ref {
				if !reflect.DeepEqual(ref[i], got[i]) {
					t.Fatalf("%v shards=%d point %d (%s @ %s) diverged from strict shards=0:\nref: %+v\ngot: %+v",
						kernel, shards, i, ref[i].Workload, ref[i].Fabric, ref[i], got[i])
				}
			}
			var jk, ck bytes.Buffer
			if err := WriteJSON(&jk, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(js.Bytes(), jk.Bytes()) {
				t.Fatalf("JSON artifacts differ between strict shards=0 and %v shards=%d", kernel, shards)
			}
			if err := WriteCSV(&ck, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(cs.Bytes(), ck.Bytes()) {
				t.Fatalf("CSV artifacts differ between strict shards=0 and %v shards=%d", kernel, shards)
			}
		}
	}
}

// TestShardDifferentialScenarios is the sweep-level half of the
// shard-determinism gate: the full spatial-pattern × topology scenario
// sweep must serialise byte-identical artifacts at every shard count under
// every kernel. AMBA points ignore the shard count, which is itself part of
// the property (they must stay untouched).
func TestShardDifferentialScenarios(t *testing.T) {
	kernels := diffKernels()
	if testing.Short() {
		kernels = kernels[2:] // the event kernel is the sweep default
	}
	assertShardDifferential(t, ScenarioGrid().Expand(), kernels, diffShardCounts)
}

// TestShardDifferentialGrid extends the gate over the TG-replay grid (two-row
// meshes: 2 is the finest partition). Every run re-translates the TG
// workloads, so only the default event kernel runs here; CI runs the full
// kernel matrix through the tgsweep artifacts, and the platform package's
// TestShardDeterminismRandomPrograms crosses TG replay with every kernel.
func TestShardDifferentialGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("grid shard differential re-translates the TG workloads repeatedly")
	}
	assertShardDifferential(t, DefaultGrid().Expand(),
		[]platform.KernelMode{platform.KernelEvent}, []int{1, 2})
}

// TestShardDifferentialRandom is the seeded randomized half of the gate,
// aimed at the two rules that make the shard count result-neutral. Closed
// stochastic workloads on back-pressured ×pipes fabrics (buffer_flits 1–4,
// where flow control decides every cycle) run unphased and under three
// phased plans sized so the workload completes in warm-up, in the middle
// of an epoch and in the drain (where the stop rule decides the final
// cycle); random kernel × shard combinations must match the strict single
// engine byte for byte.
func TestShardDifferentialRandom(t *testing.T) {
	trials, combos := 5, 3
	if testing.Short() {
		trials, combos = 3, 2
	}
	rng := rand.New(rand.NewSource(20261001))
	strict := Runner{Kernel: platform.KernelStrict}
	for trial := 0; trial < trials; trial++ {
		base := randomPoint(rng)
		base.Workload.Count = 40 + rng.Intn(80)
		base.Fabric = Fabric{
			Interconnect: FabricXPipes,
			Topology:     []string{"", "torus"}[rng.Intn(2)],
			MeshWidth:    4, MeshHeight: 3 + rng.Intn(2),
			BufferFlits: 1 + rng.Intn(4),
		}
		probe, err := strict.Run([]Point{base})
		if err != nil {
			t.Fatal(err)
		}
		if probe[0].Err != "" {
			t.Fatalf("trial %d probe: %s (point %+v)", trial, probe[0].Err, base)
		}
		// end is where the unphased run stops; odd window lengths keep the
		// phase edges off the 32-cycle completion boundaries.
		end := probe[0].Engine.Cycles
		plans := []*Measure{
			nil,
			{WarmupCycles: end + 101, Epochs: 1},
			{WarmupCycles: end / 5, EpochCycles: end/3 + 7, Epochs: 4},
			{WarmupCycles: end / 5, EpochCycles: end/3 + 7, Epochs: 1, DrainCycles: 2*end + 13},
		}
		points := make([]Point, len(plans))
		for i, m := range plans {
			points[i] = base
			points[i].ID = i
			points[i].Measure = m
		}
		phased, err := strict.Run(points[1:])
		if err != nil {
			t.Fatal(err)
		}
		ref := append(probe, phased...)
		for i, r := range ref {
			if r.Err != "" {
				t.Fatalf("trial %d plan %d: %s", trial, i, r.Err)
			}
		}
		warm, mid, drain := ref[1].Phases, ref[2].Phases, ref[3].Phases
		if !warm.Completed || warm.MeasureCycles != 0 {
			t.Fatalf("trial %d: warm-up plan did not complete in warm-up: %+v", trial, warm)
		}
		if last := mid.Epochs[len(mid.Epochs)-1]; !mid.Completed || mid.DrainCycles != 0 ||
			last.EndCycle-last.StartCycle >= plans[2].EpochCycles {
			t.Fatalf("trial %d: mid-epoch plan did not complete mid-epoch: %+v", trial, mid)
		}
		if !drain.Completed || drain.DrainCycles == 0 {
			t.Fatalf("trial %d: drain plan did not complete in the drain: %+v", trial, drain)
		}
		want := marshalResults(t, ref)
		for c := 0; c < combos; c++ {
			r := Runner{
				Kernel: diffKernels()[rng.Intn(3)],
				Shards: []int{0, 1, 2, 4, 8}[rng.Intn(5)],
			}
			got, err := r.Run(points)
			if err != nil {
				t.Fatal(err)
			}
			if g := marshalResults(t, got); !bytes.Equal(want, g) {
				t.Fatalf("trial %d (%s @ %s): %v shards=%d diverged from strict shards=0\nref: %s\ngot: %s",
					trial, ref[0].Workload, ref[0].Fabric, r.Kernel, r.Shards, want, g)
			}
		}
	}
}

// TestValidateShards bounds the axis at both ends.
func TestValidateShards(t *testing.T) {
	for _, ok := range []int{0, 1, MaxShards} {
		if err := ValidateShards(ok); err != nil {
			t.Fatalf("ValidateShards(%d) = %v", ok, err)
		}
	}
	for _, bad := range []int{-1, MaxShards + 1} {
		if err := ValidateShards(bad); err == nil {
			t.Fatalf("ValidateShards(%d) accepted", bad)
		}
	}
}
