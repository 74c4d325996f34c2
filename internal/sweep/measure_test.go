package sweep

import (
	"bytes"
	"math/rand"
	"testing"

	"noctg/internal/simtest"
)

// zeroPlanMeasure is the zero plan written out: no warmup, one open epoch
// to completion, no drain.
func zeroPlanMeasure() *Measure { return &Measure{Epochs: 1} }

// stripPhases clears the Phases block so the Result of a point with a
// Measure can be compared byte-for-byte against one without.
func stripPhases(results []Result) []Result {
	out := append([]Result(nil), results...)
	for i := range out {
		out[i].Phases = nil
	}
	return out
}

// randomPoint draws one randomized stochastic scenario point.
func randomPoint(rng *rand.Rand) Point {
	patterns := []string{"", "uniform", "transpose", "bitcomp", "bitrev", "hotspot", "neighbor"}
	dists := []string{"uniform", "gaussian", "poisson", "bursty"}
	w := Workload{
		Kind:    KindStochastic,
		Dist:    dists[rng.Intn(len(dists))],
		Cores:   4,
		MeanGap: []float64{3, 6, 12}[rng.Intn(3)],
		Count:   100 + rng.Intn(200),
	}
	if pat := patterns[rng.Intn(len(patterns))]; pat != "" {
		w.Pattern = pat
		w.PatternW, w.PatternH = 2, 2
		if pat == "hotspot" {
			w.Hotspot = []float64{0, 0.7, 0, 0}
		}
	}
	fabrics := []Fabric{
		{Interconnect: FabricAMBA},
		{Interconnect: FabricXPipes, MeshWidth: 4, MeshHeight: 3},
		{Interconnect: FabricXPipes, Topology: "torus", MeshWidth: 4, MeshHeight: 3},
	}
	return Point{
		Workload:      w,
		Fabric:        fabrics[rng.Intn(len(fabrics))],
		ClockPeriodNS: 5,
		Seed:          rng.Int63n(1 << 20),
	}
}

// TestPhasedLegacyEquivalenceProperty pins what a nil Measure means: for
// randomized scenarios, on every kernel, nil Measure ≡ Measure{Epochs: 1}
// minus the Phases block — the same Result and the same serialised bytes
// once the purely additive block is stripped. Both go through the one
// accounting (measure); the nil point merely runs its single window
// through System.Run.
func TestPhasedLegacyEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20260727))
	var whole, phased []Point
	for trial := 0; trial < 6; trial++ {
		p := randomPoint(rng)
		p.ID = trial
		whole = append(whole, p)
		p.Measure = zeroPlanMeasure()
		phased = append(phased, p)
	}
	simtest.Differential(t, "nil versus one-epoch measure", simtest.Kernel, func(t *testing.T, x simtest.Exec) []byte {
		r := execRunner(t, x)
		plain, ph := runPoints(t, r, whole), runPoints(t, r, phased)
		for i := range ph {
			if plain[i].Phases != nil {
				t.Fatalf("trial %d %v: a point without a Measure reported phase stats", i, x)
			}
			if ps := ph[i].Phases; ps == nil || !ps.Completed || ps.WarmupCycles != 0 || len(ps.Epochs) != 1 {
				t.Fatalf("trial %d %v: phase stats %+v", i, x, ps)
			}
		}
		want := renderResults(t, plain)
		if got := renderResults(t, stripPhases(ph)); !bytes.Equal(want, got) {
			t.Fatalf("%v: Measure{Epochs: 1} diverged from nil Measure\nnil:    %s\nphased: %s", x, want, got)
		}
		return want
	})
}

// TestPhasedKernelDifferential: a genuinely phased run (warmup, fixed
// epochs, drain) serialises the same artifact — every epoch's counter
// breakdown included — under every kernel and shard count.
func TestPhasedKernelDifferential(t *testing.T) {
	m := &Measure{WarmupCycles: 300, EpochCycles: 400, Epochs: 3, DrainCycles: 10_000}
	var points []Point
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 3; i++ {
		p := randomPoint(rng)
		p.ID = i
		p.Measure = m
		points = append(points, p)
	}
	simtest.Differential(t, "random phased points", simtest.Kernel|simtest.Shards, func(t *testing.T, x simtest.Exec) []byte {
		results := runPoints(t, execRunner(t, x), points)
		for _, r := range results {
			if r.Phases == nil || len(r.Phases.Epochs) == 0 {
				t.Fatalf("%v point %d: no phase stats", x, r.ID)
			}
		}
		return renderResults(t, results)
	})
}

// TestPhasedAdaptiveEpochs exercises the CI-driven stopping mode: the run
// must stop between minCIEpochs and the cap, report convergence, and tile
// the measure window exactly with its epochs.
func TestPhasedAdaptiveEpochs(t *testing.T) {
	p := Point{
		Workload: Workload{Kind: KindStochastic, Dist: "poisson", Cores: 4,
			Pattern: "uniform", PatternW: 2, PatternH: 2, Count: 1 << 30, MeanGap: 6},
		Fabric:        Fabric{Interconnect: FabricXPipes, MeshWidth: 4, MeshHeight: 3},
		ClockPeriodNS: 5,
		Seed:          1,
		Measure:       &Measure{WarmupCycles: 1000, EpochCycles: 2000, CITarget: 0.1},
	}
	res, err := Runner{}.Run([]Point{p})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != "" {
		t.Fatal(res[0].Err)
	}
	ps := res[0].Phases
	if ps == nil {
		t.Fatal("no phase stats")
	}
	if !ps.Converged {
		t.Fatalf("adaptive run did not converge: %+v", ps)
	}
	if n := len(ps.Epochs); n < minCIEpochs || n >= defaultMaxEpochs {
		t.Fatalf("epochs = %d", n)
	}
	if ps.CIHalfWidthRel <= 0 || ps.CIHalfWidthRel > 0.1 {
		t.Fatalf("ci half-width = %g", ps.CIHalfWidthRel)
	}
	if ps.WarmupCycles != 1000 {
		t.Fatalf("warmup = %d", ps.WarmupCycles)
	}
	// Epochs tile the measure window contiguously.
	start := uint64(1000)
	for i, e := range ps.Epochs {
		if e.StartCycle != start || e.EndCycle != start+2000 {
			t.Fatalf("epoch %d window [%d,%d), want [%d,%d)", i, e.StartCycle, e.EndCycle, start, start+2000)
		}
		start = e.EndCycle
		if e.Counters == nil {
			t.Fatalf("epoch %d has no counter breakdown", i)
		}
		// The per-VC breakdown must tally with the total flit count.
		var vcs uint64
		for _, name := range []string{"noc/flits/req", "noc/flits/resp", "noc/flits/req_dl", "noc/flits/resp_dl"} {
			vcs += e.Counters[name]
		}
		if vcs != e.Counters["noc/flits_routed"] || e.FlitsRouted != vcs {
			t.Fatalf("epoch %d: per-VC flits %d != total %d (%d)", i, vcs, e.Counters["noc/flits_routed"], e.FlitsRouted)
		}
	}
	if ps.MeasureCycles != start-1000 {
		t.Fatalf("measure cycles = %d, epochs covered %d", ps.MeasureCycles, start-1000)
	}
}

func TestMeasureValidate(t *testing.T) {
	valid := []Measure{
		{},
		{Epochs: 1},
		{WarmupCycles: 100, EpochCycles: 200, Epochs: 4, DrainCycles: 50},
		{EpochCycles: 200, CITarget: 0.05, MaxEpochs: 10},
	}
	for i, m := range valid {
		if err := m.Validate(); err != nil {
			t.Errorf("valid measure %d rejected: %v", i, err)
		}
	}
	invalid := []Measure{
		{CITarget: -0.1},
		{CITarget: 1},
		{CITarget: 0.05}, // adaptive without epoch_cycles
		{EpochCycles: 100, CITarget: 0.05, Epochs: 2}, // both modes
		{MaxEpochs: 5}, // cap without adaptive mode
		{Epochs: 3},    // multiple epochs without a length
		{Epochs: -1},
	}
	for i, m := range invalid {
		if err := m.Validate(); err == nil {
			t.Errorf("invalid measure %d accepted: %+v", i, m)
		}
	}
}
