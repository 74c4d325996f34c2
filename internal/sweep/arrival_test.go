package sweep

import (
	"math/rand"
	"strings"
	"testing"

	"noctg/internal/simtest"
)

func TestArrivalWorkloadValidation(t *testing.T) {
	mmpp := &Arrival{Process: ProcessMMPP, Gaps: []float64{3, 0}, Dwells: []float64{80, 160}}
	bad := []struct {
		name string
		w    Workload
	}{
		{"arrival with dist", Workload{Kind: KindStochastic, Cores: 2, Dist: "poisson", Arrival: mmpp}},
		{"arrival with mean_gap", Workload{Kind: KindStochastic, Cores: 2, MeanGap: 8, Arrival: mmpp}},
		{"unknown process", Workload{Kind: KindStochastic, Cores: 2,
			Arrival: &Arrival{Process: "weibull"}}},
		{"mmpp with selfsim fields", Workload{Kind: KindStochastic, Cores: 2,
			Arrival: &Arrival{Process: ProcessMMPP, Gaps: []float64{3, 0},
				Dwells: []float64{80, 160}, Hurst: 0.8}}},
		{"selfsim with mmpp fields", Workload{Kind: KindStochastic, Cores: 2,
			Arrival: &Arrival{Process: ProcessSelfSimilar, Sources: 8, Hurst: 0.8,
				OnMean: 50, OffMean: 100, PeakGap: 4, Gaps: []float64{1, 2}}}},
		{"bad dwell dist", Workload{Kind: KindStochastic, Cores: 2,
			Arrival: &Arrival{Process: ProcessMMPP, Gaps: []float64{3, 0},
				Dwells: []float64{80, 160}, DwellDist: "weibull"}}},
		{"bad classes", Workload{Kind: KindStochastic, Cores: 2, Dist: "poisson",
			Classes: []float64{-1, 1}}},
		{"tg with arrival", Workload{Kind: KindTG, Bench: "mpmatrix", Cores: 2, Size: 8,
			Arrival: mmpp}},
		{"tg with classes", Workload{Kind: KindTG, Bench: "mpmatrix", Cores: 2, Size: 8,
			Classes: []float64{1, 1}}},
	}
	for _, tc := range bad {
		if err := tc.w.validate(); err == nil {
			t.Errorf("%s: validate accepted %+v", tc.name, tc.w)
		}
	}
	good := Workload{Kind: KindStochastic, Cores: 2, Count: 100, Arrival: mmpp,
		Classes: []float64{2, 1}}
	if err := good.validate(); err != nil {
		t.Fatalf("valid arrival workload rejected: %v", err)
	}
	cfg, err := good.StochasticConfig(7)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.MMPP == nil || cfg.Seed != 7 || len(cfg.Classes) != 2 {
		t.Fatalf("compiled config = %+v", cfg)
	}
}

func TestArrivalWorkloadLabels(t *testing.T) {
	labels := map[string]Workload{
		"stochastic-mmpp2/4P/300": {Kind: KindStochastic, Cores: 4, Count: 300,
			Arrival: &Arrival{Process: ProcessMMPP, Gaps: []float64{3, 0}, Dwells: []float64{80, 160}}},
		"stochastic-mmpp2det/4P/300": {Kind: KindStochastic, Cores: 4, Count: 300,
			Arrival: &Arrival{Process: ProcessMMPP, Gaps: []float64{4, 16},
				Dwells: []float64{100, 200}, DwellDist: DwellDet}},
		"stochastic-selfsimH0.8x8/4P/300": {Kind: KindStochastic, Cores: 4, Count: 300,
			Arrival: &Arrival{Process: ProcessSelfSimilar, Sources: 8, Hurst: 0.8,
				OnMean: 50, OffMean: 100, PeakGap: 4}},
		"stochastic-poisson-prio3/4P/300": {Kind: KindStochastic, Cores: 4, Count: 300,
			Dist: "poisson", Classes: []float64{0.5, 0.3, 0.2}},
	}
	for want, w := range labels {
		if got := w.Label(); got != want {
			t.Errorf("label = %q, want %q", got, want)
		}
	}
}

// TestKernelDifferentialBursty: every point of the stock
// bursty/self-similar/priority grid serialises the same artifact under
// every kernel, and the reference is the committed golden.
func TestKernelDifferentialBursty(t *testing.T) {
	ref := simtest.Differential(t, "bursty grid", simtest.Kernel, pointsCampaign(BurstyGrid().Expand()))
	goldenBytes(t, "bursty", ref)
}

// randomArrivalPoints draws a randomized-but-seeded set of MMPP and
// self-similar workloads on a sharded ×pipes mesh: the property-test
// corpus for the kernel × shard determinism matrix.
func randomArrivalPoints(seed int64, n int) []Point {
	rng := rand.New(rand.NewSource(seed))
	var ws []Workload
	for i := 0; i < n; i++ {
		w := Workload{
			Kind:     KindStochastic,
			Cores:    4,
			Count:    150,
			Pattern:  []string{"uniform", "transpose", "hotspot"}[rng.Intn(3)],
			PatternW: 2, PatternH: 2,
		}
		if w.Pattern == "hotspot" {
			w.Hotspot = []float64{0, 0.2 + 0.6*rng.Float64()}
		}
		if rng.Intn(4) > 0 {
			w.Classes = []float64{1 + rng.Float64(), rng.Float64(), 0.5}
		}
		if i%2 == 0 {
			states := 2 + rng.Intn(3)
			m := &Arrival{Process: ProcessMMPP}
			for s := 0; s < states; s++ {
				gap := float64(2 + rng.Intn(18))
				if s > 0 && rng.Intn(3) == 0 {
					gap = 0 // silent state
				}
				m.Gaps = append(m.Gaps, gap)
				m.Dwells = append(m.Dwells, float64(50+rng.Intn(350)))
			}
			if m.Gaps[0] == 0 {
				m.Gaps[0] = 4
			}
			if rng.Intn(2) == 0 {
				m.DwellDist = DwellDet
			}
			w.Arrival = m
		} else {
			w.Arrival = &Arrival{
				Process: ProcessSelfSimilar,
				Sources: 4 + rng.Intn(12),
				Hurst:   0.55 + 0.35*rng.Float64(),
				OnMean:  20 + 100*rng.Float64(),
				OffMean: 20 + 200*rng.Float64(),
				PeakGap: 2 + 6*rng.Float64(),
			}
		}
		ws = append(ws, w)
	}
	g := Grid{
		Workloads: ws,
		Fabrics:   []Fabric{{Interconnect: FabricXPipes, MeshWidth: 4, MeshHeight: 3}},
		Seeds:     []int64{rng.Int63n(1 << 30)},
	}
	return g.Expand()
}

// TestArrivalPropertyDifferential is the randomized half of the arrival
// determinism gate: seeded-random MMPP and self-similar configurations
// serialise the same artifact under every kernel and shard count. The draw
// is seeded, so a failure reproduces.
func TestArrivalPropertyDifferential(t *testing.T) {
	points := randomArrivalPoints(20250808, 4)
	if err := (Grid{Workloads: []Workload{points[0].Workload},
		Fabrics: []Fabric{points[0].Fabric}}).Validate(); err != nil {
		t.Fatalf("random workload invalid: %v", err)
	}
	simtest.Differential(t, "random arrival points", simtest.Kernel|simtest.Shards, pointsCampaign(points))
}

// TestGoldenBurstyScenarios snapshots the stock bursty grid under
// testdata/golden/bursty.json: any drift in the arrival-process state
// machines, the class draw or their discretization fails CI with a
// diffable artifact. Regenerate deliberately with -update.
func TestGoldenBurstyScenarios(t *testing.T) {
	results, err := Runner{}.Run(BurstyGrid().Expand())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != "" {
			t.Fatalf("point %d (%s @ %s): %s", r.ID, r.Workload, r.Fabric, r.Err)
		}
	}
	for _, r := range results {
		if r.Transactions == 0 {
			t.Fatalf("point %d (%s) completed no transactions", r.ID, r.Workload)
		}
	}
	golden(t, "bursty", results)
}

// TestBurstyGridParsesStrict round-trips an arrival workload through the
// strict grid parser.
func TestBurstyGridParsesStrict(t *testing.T) {
	src := `{
		"workloads": [{"kind":"stochastic","cores":4,"count":100,
			"arrival":{"process":"mmpp","gaps":[3,0],"dwells":[80,160]}}],
		"fabrics": [{"interconnect":"amba"}]
	}`
	g, err := ParseGrid(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if g.Workloads[0].Arrival == nil {
		t.Fatal("arrival axis lost in parsing")
	}
	bad := strings.Replace(src, `"arrival"`, `"arival"`, 1)
	if _, err := ParseGrid(strings.NewReader(bad)); err == nil {
		t.Fatal("typo'd arrival key must be rejected")
	}
}
