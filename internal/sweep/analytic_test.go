package sweep

import (
	"bytes"
	"math"
	"os"
	"testing"

	"noctg/internal/simtest"
)

// adaptiveCurveSpec is the adaptive twin of the golden curve, on the
// stock 13-level ladder so the traversal has levels worth skipping.
func adaptiveCurveSpec() CurveSpec {
	cs := goldenCurveSpec()
	cs.Name = "hotspot-amba-adaptive"
	cs.Gaps = nil // stock DefaultCurveGaps ladder
	cs.Mode = CurveModeAdaptive
	return cs
}

// TestAnalyticSpecConversion pins the sweep-to-estimator bridge: the
// compiled spec must mirror the platform floorplan and the stochastic
// layer's resolved traffic descriptors.
func TestAnalyticSpecConversion(t *testing.T) {
	w := Workload{
		Kind: KindStochastic, Dist: "poisson", Cores: 4,
		Pattern: "uniform", PatternW: 2, PatternH: 2, Count: 300, MeanGap: 10,
	}
	spec, err := AnalyticSpec(w, Fabric{Interconnect: FabricXPipes})
	if err != nil {
		t.Fatal(err)
	}
	// The platform auto-sizes 4 cores onto a 4x3 mesh: masters at nodes
	// 0..3, private memories at 11..8.
	if spec.Fabric.Width != 4 || spec.Fabric.Height != 3 {
		t.Fatalf("auto mesh = %dx%d, want 4x3", spec.Fabric.Width, spec.Fabric.Height)
	}
	if spec.Traffic.Masters != 4 || spec.Traffic.MeanGap != 10 {
		t.Fatalf("traffic = %+v", spec.Traffic)
	}
	for i, node := range spec.Traffic.MasterNode {
		if node != i {
			t.Fatalf("master %d at node %d, want %d", i, node, i)
		}
	}
	for i, dests := range spec.Traffic.DestNodes {
		for _, d := range dests {
			if d < 8 || d > 11 {
				t.Fatalf("master %d targets node %d, outside the private-memory row 8..11", i, d)
			}
		}
	}

	if _, err := AnalyticSpec(Workload{Kind: KindTG, Bench: "mpmatrix", Cores: 2, Size: 8},
		Fabric{Interconnect: FabricAMBA}); err == nil {
		t.Fatal("TG workload accepted: trace replay has no stochastic process to predict")
	}
}

// TestGridAnalyticPrePass pins the grid-level pre-pass contract: a point
// the model brackets confidently is recorded as an estimated result
// carrying the prediction, a near-knee point still simulates, and no
// point is ever dropped.
func TestGridAnalyticPrePass(t *testing.T) {
	g := Grid{
		Workloads: []Workload{
			// Deep in the linear region: estimated.
			{Kind: KindStochastic, Dist: "poisson", Cores: 4,
				Pattern: "hotspot", PatternW: 2, PatternH: 2,
				Hotspot: []float64{0, 0, 0.6}, MeanGap: 48, Count: 300},
			// At the knee: must simulate.
			{Kind: KindStochastic, Dist: "poisson", Cores: 4,
				Pattern: "hotspot", PatternW: 2, PatternH: 2,
				Hotspot: []float64{0, 0, 0.6}, MeanGap: 6, Count: 300},
		},
		Fabrics:  []Fabric{{Interconnect: FabricAMBA}},
		Analytic: true,
	}
	points := g.Expand()
	if len(points) != 2 {
		t.Fatalf("expanded %d points, want 2", len(points))
	}
	for _, p := range points {
		if !p.Analytic {
			t.Fatalf("point %d lost the analytic marker", p.ID)
		}
	}
	results, err := Runner{}.Run(points)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2: estimated points must never be dropped", len(results))
	}
	est, sim := results[0], results[1]
	if !est.Estimated {
		t.Fatalf("gap-48 point was simulated; the model must bracket it confidently: %+v", est)
	}
	if est.Analytic == nil || est.ThroughputTPK <= 0 || est.Latency.Mean <= 0 {
		t.Fatalf("estimated result lacks its prediction: %+v", est)
	}
	if sim.Estimated {
		t.Fatal("near-knee point was estimated; the pre-pass must simulate near the knee")
	}
	if sim.Transactions == 0 {
		t.Fatalf("near-knee point did not simulate: %+v", sim)
	}

	// The pre-pass is result-determining, so it keys the journal: the same
	// configuration with and without the marker must never collide.
	off := points[0]
	off.Analytic = false
	if PointKey(points[0]) == PointKey(off) {
		t.Fatal("analytic marker does not key the journal")
	}

	// The estimated result must round-trip the CSV artifact with its
	// marker column set.
	var buf bytes.Buffer
	if err := WriteCSV(&buf, results); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(",true")) {
		t.Fatalf("results CSV lacks the estimated marker:\n%s", buf.String())
	}
}

// TestAdaptiveCurveContract pins the adaptive traversal against its
// uniform twin on the same ladder: the same detected knee within one
// load step, at least 40% fewer simulated levels, and a full ladder of
// points with the skipped levels carried as estimates.
func TestAdaptiveCurveContract(t *testing.T) {
	uni := adaptiveCurveSpec()
	uni.Mode = CurveModeUniform
	curves, err := Runner{}.RunCurves([]CurveSpec{uni, adaptiveCurveSpec()})
	if err != nil {
		t.Fatal(err)
	}
	uc, ac := curves[0], curves[1]
	if uc.Saturation == nil || ac.Saturation == nil {
		t.Fatalf("both modes must detect saturation: uniform %+v adaptive %+v", uc.Saturation, ac.Saturation)
	}
	if d := ac.Saturation.Index - uc.Saturation.Index; d < -1 || d > 1 {
		t.Fatalf("adaptive knee at level %d, uniform at %d: more than one step apart",
			ac.Saturation.Index, uc.Saturation.Index)
	}
	if len(ac.Points) != len(uc.Points) {
		t.Fatalf("adaptive ladder has %d levels, uniform %d", len(ac.Points), len(uc.Points))
	}
	if ac.SimulatedLevels+ac.EstimatedLevels != len(ac.Points) {
		t.Fatalf("level accounting: %d + %d != %d", ac.SimulatedLevels, ac.EstimatedLevels, len(ac.Points))
	}
	if float64(ac.SimulatedLevels) > 0.6*float64(len(uc.Points)) {
		t.Fatalf("adaptive simulated %d of %d levels; the contract is at least 40%% fewer",
			ac.SimulatedLevels, len(uc.Points))
	}
	if ac.Analytic == nil {
		t.Fatal("adaptive curve lacks its analytic estimate")
	}
	estimated := 0
	for _, p := range ac.Points {
		if p.Estimated {
			estimated++
			if p.LatencyMean <= 0 || p.ThroughputTPK <= 0 {
				t.Fatalf("estimated level gap %g lacks model values: %+v", p.MeanGap, p)
			}
		}
	}
	if estimated != ac.EstimatedLevels {
		t.Fatalf("%d points flagged estimated, curve reports %d", estimated, ac.EstimatedLevels)
	}
	// Uniform-mode artifacts must not grow any adaptive fields.
	var buf bytes.Buffer
	if err := WriteCurvesJSON(&buf, []Curve{uc}); err != nil {
		t.Fatal(err)
	}
	for _, banned := range []string{`"mode"`, `"estimated"`, `"analytic"`, `"simulated_levels"`} {
		if bytes.Contains(buf.Bytes(), []byte(banned)) {
			t.Fatalf("uniform curve artifact gained %s; legacy artifacts must stay byte-identical", banned)
		}
	}
}

// TestAdaptiveCurveMatrixDeterminism: adaptive traversal consults the
// estimator and refines in lockstep rounds, yet its artifact is the same
// under every kernel and worker count (AMBA ignores shards).
func TestAdaptiveCurveMatrixDeterminism(t *testing.T) {
	simtest.Differential(t, "adaptive AMBA curve", simtest.Kernel|simtest.Workers, curvesCampaign(adaptiveCurveSpec()))
}

// TestAdaptiveCurveShardDeterminism: a ×pipes adaptive curve serialises the
// same artifact under every shard count, the kernel rotating; the library's
// adaptive ×pipes curves run every kernel on one engine
// (scenario.TestLibraryCurveDifferential).
func TestAdaptiveCurveShardDeterminism(t *testing.T) {
	simtest.Differential(t, "adaptive xpipes curve", simtest.Kernel|simtest.Shards|simtest.Rotated, curvesCampaign(CurveSpec{
		Name: "uniform-xpipes-adaptive",
		Workload: Workload{
			Kind: KindStochastic, Dist: "poisson", Cores: 4,
			Pattern: "uniform", PatternW: 2, PatternH: 2,
		},
		Fabric: Fabric{Interconnect: FabricXPipes},
		Gaps:   []float64{24, 6, 2, 1, 0.5},
		Mode:   CurveModeAdaptive,
		Measure: Measure{
			WarmupCycles: 1000,
			EpochCycles:  2000,
			CITarget:     0.05,
		},
	}))
}

// TestPredictSaturationIndex sanity-checks the operational knee on the
// golden AMBA curve's ladder: the detector run on the model's own curve
// must fire, and earlier for a hotter (lower wait-state headroom) fabric.
func TestPredictSaturationIndex(t *testing.T) {
	cs := adaptiveCurveSpec()
	est, err := NewEstimator(cs.Workload, cs.Fabric)
	if err != nil {
		t.Fatal(err)
	}
	gaps := DefaultCurveGaps
	k := PredictSaturationIndex(est, gaps)
	if k <= 0 || k >= len(gaps) {
		t.Fatalf("predicted saturation index %d on a %d-level ladder", k, len(gaps))
	}
	slow := cs.Fabric
	slow.MemWaitStates = 4
	slower, err := NewEstimator(cs.Workload, slow)
	if err != nil {
		t.Fatal(err)
	}
	ks := PredictSaturationIndex(slower, gaps)
	if ks > k {
		t.Fatalf("4-wait-state fabric predicted to saturate later (level %d) than 1-wait-state (level %d)", ks, k)
	}
}

// TestAnalyticReportCoversStochasticPoints: the report carries one entry
// per distinct stochastic configuration, rejections included, and skips
// TG replay points.
func TestAnalyticReportCoversStochasticPoints(t *testing.T) {
	g := Grid{
		Workloads: []Workload{
			{Kind: KindStochastic, Dist: "poisson", Cores: 4,
				Pattern: "uniform", PatternW: 2, PatternH: 2, MeanGap: 10, Count: 300},
			{Kind: KindTG, Bench: "mpmatrix", Cores: 2, Size: 8},
		},
		Fabrics: []Fabric{{Interconnect: FabricAMBA}, {Interconnect: FabricXPipes}},
		Seeds:   []int64{1, 2}, // seeds must not duplicate entries
	}
	rep := AnalyticReport(g.Expand())
	if len(rep.Entries) != 2 {
		for _, e := range rep.Entries {
			t.Logf("entry: %s err=%q", e.Label, e.Err)
		}
		t.Fatalf("report has %d entries, want 2 (stochastic workload x 2 fabrics, deduped across seeds)", len(rep.Entries))
	}
	for _, e := range rep.Entries {
		if e.Err != "" {
			t.Fatalf("%s: %s", e.Label, e.Err)
		}
		if e.Estimate.ZeroLoadLatency <= 0 {
			t.Fatalf("%s: no prediction: %+v", e.Label, e.Estimate)
		}
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("zero_load_latency_cycles")) {
		t.Fatalf("report artifact lacks predictions:\n%s", buf.String())
	}
}

// TestPrePassWorkerDeterminism: the pre-pass decision is a pure function
// of the point, so a mixed estimated/simulated grid serialises the same
// artifact under every kernel and worker count.
func TestPrePassWorkerDeterminism(t *testing.T) {
	var ws []Workload
	for _, gap := range []float64{48, 24, 12, 6, 3} {
		ws = append(ws, Workload{
			Kind: KindStochastic, Dist: "poisson", Cores: 4,
			Pattern: "hotspot", PatternW: 2, PatternH: 2,
			Hotspot: []float64{0, 0, 0.6}, MeanGap: gap, Count: 300,
		})
	}
	points := Grid{Workloads: ws, Fabrics: []Fabric{{Interconnect: FabricAMBA}}, Analytic: true}.Expand()
	want := simtest.Differential(t, "pre-pass grid", simtest.Kernel|simtest.Workers, pointsCampaign(points))
	estimated := bytes.Count(want, []byte(`"estimated": true`))
	if estimated == 0 {
		t.Fatal("no point was estimated; the light end of the ladder must be")
	}
	if estimated == len(points) {
		t.Fatal("every point was estimated; the knee region must simulate")
	}
}

// TestJournalResumeWithAnalyticPoints: estimated results round-trip the
// write-ahead journal like simulated ones.
func TestJournalResumeWithAnalyticPoints(t *testing.T) {
	g := Grid{
		Workloads: []Workload{{
			Kind: KindStochastic, Dist: "poisson", Cores: 4,
			Pattern: "hotspot", PatternW: 2, PatternH: 2,
			Hotspot: []float64{0, 0, 0.6}, MeanGap: 48, Count: 300,
		}},
		Fabrics:  []Fabric{{Interconnect: FabricAMBA}},
		Analytic: true,
	}
	points := g.Expand()
	path := t.TempDir() + "/analytic.journal"
	first, _, err := Runner{}.RunJournaled(points, JournalConfig{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if !first[0].Estimated {
		t.Fatalf("expected an estimated result: %+v", first[0])
	}
	resumed, status, err := Runner{}.Resume(points, path)
	if err != nil {
		t.Fatal(err)
	}
	if status.Resumed != 1 || status.Ran != 0 {
		t.Fatalf("resume re-ran an estimated point: %+v", status)
	}
	a, b := renderResults(t, first), renderResults(t, resumed)
	if !bytes.Equal(a, b) {
		t.Fatal("estimated result changed across journal resume")
	}
}

// TestCurveCSVEstimatedColumn: the curve CSV carries the mode and the
// per-level estimated marker.
func TestCurveCSVEstimatedColumn(t *testing.T) {
	curves, err := Runner{}.RunCurves([]CurveSpec{adaptiveCurveSpec()})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCurvesCSV(&buf, curves); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"mode", "estimated", "adaptive"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("curve CSV lacks %q:\n%s", want, out)
		}
	}
	if curves[0].EstimatedLevels > 0 && !bytes.Contains(buf.Bytes(), []byte(",true,")) {
		t.Fatalf("curve CSV lacks estimated rows:\n%s", out)
	}
}

// TestAnalyticValidationErrors: the estimator rejects what the platform
// would reject, with the configuration named.
func TestAnalyticValidationErrors(t *testing.T) {
	w := Workload{
		Kind: KindStochastic, Dist: "poisson", Cores: 4,
		Pattern: "uniform", PatternW: 2, PatternH: 2, MeanGap: 10, Count: 300,
	}
	if _, err := AnalyticSpec(w, Fabric{Interconnect: "warp"}); err == nil {
		t.Fatal("unknown interconnect accepted")
	}
	tiny := Fabric{Interconnect: FabricXPipes, MeshWidth: 2, MeshHeight: 2}
	if _, err := AnalyticSpec(w, tiny); err == nil {
		t.Fatal("2x2 mesh accepted for 4 cores; the platform needs 2*cores+3 nodes")
	}
	if _, err := NewEstimator(w, Fabric{Interconnect: FabricAMBA}); err != nil {
		t.Fatal(err)
	}
}

// TestPredictedKneeGap pins the continuous knee prediction the CLI table
// and the adaptive seed's fallback use: finite, positive, and monotone in
// the service time (a slower memory saturates at a lighter load, i.e. a
// larger gap).
func TestPredictedKneeGap(t *testing.T) {
	cs := adaptiveCurveSpec()
	est, err := NewEstimator(cs.Workload, cs.Fabric)
	if err != nil {
		t.Fatal(err)
	}
	knee := PredictedKneeGap(est)
	if !(knee > 0) || math.IsInf(knee, 0) || math.IsNaN(knee) {
		t.Fatalf("predicted knee gap = %g, want a positive finite gap", knee)
	}
	slow := cs.Fabric
	slow.MemWaitStates = 4
	slower, err := NewEstimator(cs.Workload, slow)
	if err != nil {
		t.Fatal(err)
	}
	if ks := PredictedKneeGap(slower); ks < knee {
		t.Fatalf("4-wait-state fabric knee gap %g below 1-wait-state %g: slower service must saturate at lighter load", ks, knee)
	}
}

// TestAdaptiveCurveNoSaturation pins the traversal on a ladder that never
// leaves the linear region: the model predicts no saturation (the seed
// falls back to the continuous knee), the simulated levels confirm it,
// and the curve completes without a saturation point instead of looping.
func TestAdaptiveCurveNoSaturation(t *testing.T) {
	cs := adaptiveCurveSpec()
	cs.Name = "hotspot-amba-light"
	cs.Gaps = []float64{200, 150, 100, 80, 60}
	curves, err := Runner{}.RunCurves([]CurveSpec{cs})
	if err != nil {
		t.Fatal(err)
	}
	c := curves[0]
	if c.Saturation != nil {
		t.Fatalf("light-load ladder detected saturation at gap %g", c.Saturation.MeanGap)
	}
	if len(c.Points) != len(cs.Gaps) {
		t.Fatalf("curve has %d levels, want the full %d-level ladder", len(c.Points), len(cs.Gaps))
	}
	if c.SimulatedLevels+c.EstimatedLevels != len(c.Points) || c.SimulatedLevels == 0 {
		t.Fatalf("level accounting: %d simulated + %d estimated over %d points",
			c.SimulatedLevels, c.EstimatedLevels, len(c.Points))
	}
	// The endpoints are always simulated; the seed round is the whole
	// traversal when nothing saturates.
	if c.Points[0].Estimated || c.Points[len(c.Points)-1].Estimated {
		t.Fatal("ladder endpoints must be simulated, not estimated")
	}
}

// TestAnalyticPrePassRejection: a point carrying the pre-pass marker whose
// configuration the estimator rejects must fall back to simulation, not
// fail or drop.
func TestAnalyticPrePassRejection(t *testing.T) {
	p := Point{
		ID:            1,
		Workload:      Workload{Kind: KindTG, Bench: "mpmatrix", Cores: 2, Size: 8},
		Fabric:        Fabric{Interconnect: FabricAMBA},
		ClockPeriodNS: 5,
		Analytic:      true, // hand-forced: Expand never marks TG points
	}
	results, err := Runner{}.Run([]Point{p})
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	if r.Err != "" {
		t.Fatalf("TG point with analytic marker failed: %s", r.Err)
	}
	if r.Estimated {
		t.Fatal("TG point was estimated; the estimator cannot model trace replay")
	}
	if r.Transactions == 0 {
		t.Fatal("TG point did not simulate")
	}
}

// TestCurveModeValidation: the mode knob rejects unknown strings, and
// adaptive mode surfaces an estimator-rejecting configuration at
// validation time instead of mid-sweep.
func TestCurveModeValidation(t *testing.T) {
	cs := adaptiveCurveSpec()
	cs.Mode = "bisect"
	if err := cs.Validate(); err == nil {
		t.Fatal("unknown curve mode accepted")
	}
	bad := adaptiveCurveSpec()
	bad.Fabric = Fabric{Interconnect: FabricXPipes, MeshWidth: 2, MeshHeight: 2}
	if err := bad.Validate(); err == nil {
		t.Fatal("adaptive mode accepted a mesh too small for the estimator's floorplan")
	}
	// The same fabric is fine in uniform mode: only the adaptive planner
	// needs the model.
	bad.Mode = CurveModeUniform
	if err := bad.Validate(); err != nil {
		t.Fatalf("uniform mode rejected a simulable fabric: %v", err)
	}
}

// TestAnalyticSpecLegacyTarget: pattern-less xpipes workloads target the
// shared slave, exactly as the platform floorplan places it.
func TestAnalyticSpecLegacyTarget(t *testing.T) {
	w := Workload{Kind: KindStochastic, Dist: "poisson", Cores: 4, Count: 300, MeanGap: 10}
	spec, err := AnalyticSpec(w, Fabric{Interconnect: FabricXPipes})
	if err != nil {
		t.Fatal(err)
	}
	// 4 cores auto-size to 4x3 = 12 nodes; the shared slave sits at
	// Nodes-1-Cores = 7.
	for i, dests := range spec.Traffic.DestNodes {
		if len(dests) != 1 || dests[0] != 7 {
			t.Fatalf("master %d targets %v, want the shared slave at node 7", i, dests)
		}
		if spec.Traffic.DestProbs[i][0] != 1 {
			t.Fatalf("master %d probs = %v", i, spec.Traffic.DestProbs[i])
		}
	}
}

// TestNextLevelsGoldenSection drives the refinement planner directly: a
// wide saturation bracket must split at the golden-section interior
// point, skipping already-simulated indices.
func TestNextLevelsGoldenSection(t *testing.T) {
	cs := adaptiveCurveSpec().withDefaults()
	est, err := NewEstimator(cs.Workload, cs.Fabric)
	if err != nil {
		t.Fatal(err)
	}
	// Hand-built simulated subsequence: detection fires at axis index 12
	// (latency 10x the lightest level), the nearest lighter error-free
	// level is 8 — a wide bracket the seed round can leave behind when
	// the model's knee guess is light.
	pt := func(i int, lat float64) CurvePoint {
		g := cs.Gaps[i]
		off := 4 * 1000 / (g + 1)
		return CurvePoint{MeanGap: g, OfferedTPK: off, ThroughputTPK: off, LatencyMean: lat}
	}
	st := &curveState{
		cs: cs, est: est, seeded: true,
		sim: map[int]CurvePoint{0: pt(0, 10), 8: pt(8, 12), 12: pt(12, 100)},
	}
	next := st.nextLevels()
	// m = 12 - round(0.618*4) = 10.
	if len(next) != 1 || next[0] != 10 {
		t.Fatalf("golden-section split of (8,12) = %v, want [10]", next)
	}
	// With 10 already simulated (still unsaturated), the snap must move
	// to the nearest unsimulated interior index.
	st.sim[10] = pt(10, 13)
	next = st.nextLevels()
	if len(next) != 1 || (next[0] != 9 && next[0] != 11) {
		t.Fatalf("snapped split = %v, want [9] or [11]", next)
	}
}

// TestWriteCurveArtifactsRoundTrip: the curve artifact writer produces
// both files atomically and fails cleanly on an unwritable directory.
func TestWriteCurveArtifactsRoundTrip(t *testing.T) {
	c := Curve{Name: "t", Points: []CurvePoint{{MeanGap: 4, OfferedTPK: 800, ThroughputTPK: 700, LatencyMean: 20}}}
	base := t.TempDir() + "/curves"
	if err := WriteCurveArtifacts(base, []Curve{c}); err != nil {
		t.Fatal(err)
	}
	for _, ext := range []string{".json", ".csv"} {
		if _, err := os.Stat(base + ext); err != nil {
			t.Fatalf("missing artifact %s: %v", ext, err)
		}
	}
	if err := WriteCurveArtifacts(t.TempDir()+"/no/such/dir/x", []Curve{c}); err == nil {
		t.Fatal("unwritable directory accepted")
	}
}
