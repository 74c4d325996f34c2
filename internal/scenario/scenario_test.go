package scenario

import (
	"encoding/json"
	"io"
	"strings"
	"testing"

	"noctg/internal/platform"
	"noctg/internal/simtest"
	"noctg/internal/sweep"
)

// libraryScenario returns the library scenario with the given name.
func libraryScenario(t *testing.T, name string) Spec {
	t.Helper()
	for _, s := range Library() {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("no library scenario %q", name)
	return Spec{}
}

func validSpecJSON() string {
	return `{
		"name": "transpose-torus",
		"fabric": "xpipes",
		"topology": "torus",
		"width": 2, "height": 2,
		"pattern": "transpose",
		"dist": "poisson",
		"mean_gaps": [8],
		"count": 100
	}`
}

func TestParseSingleObjectAndArray(t *testing.T) {
	one, err := Parse(strings.NewReader(validSpecJSON()))
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || one[0].Name != "transpose-torus" {
		t.Fatalf("parsed %+v", one)
	}
	many, err := Parse(strings.NewReader("[" + validSpecJSON() + "," + validSpecJSON() + "]"))
	if err != nil {
		t.Fatal(err)
	}
	if len(many) != 2 {
		t.Fatalf("parsed %d specs, want 2", len(many))
	}
}

func TestParseRejects(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string // substring the error must carry ("" = any error)
	}{
		{"empty", "", ""},
		{"not json", "pattern: uniform", ""},
		{"empty array", "[]", ""},
		{"unknown field", `{"name":"x","fabric":"amba","width":2,"height":1,"pattern":"uniform","bandwidth":9}`, "unknown field"},
		{"unknown pattern", `{"name":"x","fabric":"amba","width":2,"height":1,"pattern":"zipf"}`, ""},
		{"unknown fabric", `{"name":"x","fabric":"crossbar","width":2,"height":1,"pattern":"uniform"}`, ""},
		{"unknown topology", `{"name":"x","fabric":"xpipes","topology":"ring","width":2,"height":1,"pattern":"uniform"}`, ""},
		{"amba topology", `{"name":"x","fabric":"amba","topology":"torus","width":2,"height":1,"pattern":"uniform"}`, ""},
		{"zero grid", `{"name":"x","fabric":"amba","width":0,"height":0,"pattern":"uniform"}`, ""},
		{"negative width", `{"name":"x","fabric":"amba","width":-4,"height":2,"pattern":"uniform"}`, ""},
		{"huge grid", `{"name":"x","fabric":"amba","width":100000,"height":100000,"pattern":"uniform"}`, ""},
		{"one node", `{"name":"x","fabric":"amba","width":1,"height":1,"pattern":"uniform"}`, ""},
		{"transpose rectangular", `{"name":"x","fabric":"amba","width":4,"height":2,"pattern":"transpose"}`, ""},
		{"bitcomp non-pow2", `{"name":"x","fabric":"amba","width":3,"height":2,"pattern":"bitcomp"}`, ""},
		{"hotspot past unit", `{"name":"x","fabric":"amba","width":2,"height":2,"pattern":"hotspot","hotspot":[0.7,0.7]}`, ""},
		{"hotspot negative", `{"name":"x","fabric":"amba","width":2,"height":2,"pattern":"hotspot","hotspot":[-1,0.5]}`, ""},
		{"bad dist", `{"name":"x","fabric":"amba","width":2,"height":1,"pattern":"uniform","dist":"cauchy"}`, ""},
		{"zero gap", `{"name":"x","fabric":"amba","width":2,"height":1,"pattern":"uniform","mean_gaps":[0]}`, ""},
		{"negative gap", `{"name":"x","fabric":"amba","width":2,"height":1,"pattern":"uniform","mean_gaps":[-3]}`, ""},
		{"huge count", `{"name":"x","fabric":"amba","width":2,"height":1,"pattern":"uniform","count":99999999999}`, ""},
		{"missing name", `{"fabric":"amba","width":2,"height":1,"pattern":"uniform"}`, ""},
		{"trailing garbage", validSpecJSON() + "tail", ""},
		// The strict decoder must catch every misspelled top-level key —
		// a typo'd arrival axis silently running the Poisson default
		// would invalidate a whole study.
		{"typo arival", `{"name":"x","fabric":"amba","width":2,"height":1,"pattern":"uniform","arival":{"process":"mmpp"}}`, ""},
		{"typo clases", `{"name":"x","fabric":"amba","width":2,"height":1,"pattern":"uniform","clases":[1,2]}`, ""},
		{"typo patern", `{"name":"x","fabric":"amba","width":2,"height":1,"patern":"uniform"}`, ""},
		{"typo mean_gap", `{"name":"x","fabric":"amba","width":2,"height":1,"pattern":"uniform","mean_gap":[8]}`, ""},
		{"typo disto", `{"name":"x","fabric":"amba","width":2,"height":1,"pattern":"uniform","disto":"poisson"}`, ""},
		{"unknown arrival process", `{"name":"x","fabric":"amba","width":2,"height":1,"pattern":"uniform","arrival":{"process":"weibull"}}`, ""},
		{"unknown arrival subfield", `{"name":"x","fabric":"amba","width":2,"height":1,"pattern":"uniform","arrival":{"process":"mmpp","gapz":[3,0]}}`, ""},
		{"arrival with dist", `{"name":"x","fabric":"amba","width":2,"height":1,"pattern":"uniform","dist":"poisson","arrival":{"process":"mmpp","gaps":[3,0],"dwells":[80,160]}}`, ""},
		{"arrival with mean_gaps", `{"name":"x","fabric":"amba","width":2,"height":1,"pattern":"uniform","mean_gaps":[8],"arrival":{"process":"mmpp","gaps":[3,0],"dwells":[80,160]}}`, ""},
		{"arrival with curve_gaps", `{"name":"x","fabric":"amba","width":2,"height":1,"pattern":"uniform","curve_gaps":[8],"arrival":{"process":"mmpp","gaps":[3,0],"dwells":[80,160]}}`, ""},
		{"mmpp gap/dwell mismatch", `{"name":"x","fabric":"amba","width":2,"height":1,"pattern":"uniform","arrival":{"process":"mmpp","gaps":[3,0],"dwells":[80]}}`, ""},
		{"mmpp all silent", `{"name":"x","fabric":"amba","width":2,"height":1,"pattern":"uniform","arrival":{"process":"mmpp","gaps":[0,0],"dwells":[80,160]}}`, ""},
		{"mmpp bad dwell_dist", `{"name":"x","fabric":"amba","width":2,"height":1,"pattern":"uniform","arrival":{"process":"mmpp","gaps":[3,0],"dwells":[80,160],"dwell_dist":"weibull"}}`, ""},
		{"mmpp with selfsim fields", `{"name":"x","fabric":"amba","width":2,"height":1,"pattern":"uniform","arrival":{"process":"mmpp","gaps":[3,0],"dwells":[80,160],"hurst":0.8}}`, ""},
		{"selfsim hurst out of range", `{"name":"x","fabric":"amba","width":2,"height":1,"pattern":"uniform","arrival":{"process":"selfsim","sources":8,"hurst":0.3,"on_mean":50,"off_mean":100,"peak_gap":4}}`, ""},
		{"selfsim with mmpp fields", `{"name":"x","fabric":"amba","width":2,"height":1,"pattern":"uniform","arrival":{"process":"selfsim","sources":8,"hurst":0.8,"on_mean":50,"off_mean":100,"peak_gap":4,"gaps":[3,0]}}`, ""},
		{"unknown field classes", `{"name":"x","fabric":"amba","width":2,"height":1,"pattern":"uniform","classes":[1,-2]}`, "unknown field"},
		// The grid's bounds hold for a scenario too: these used to overlap
		// the shared RAM at bus attach or exhaust memory at platform build.
		{"16x8 cores", `{"name":"x","fabric":"xpipes","width":16,"height":8,"pattern":"uniform"}`, "cores"},
		{"1024x1024 mesh", `{"name":"x","fabric":"xpipes","width":2,"height":2,"pattern":"uniform","mesh_width":1024,"mesh_height":1024}`, "mesh_width"},
		{"huge buffer", `{"name":"x","fabric":"xpipes","width":2,"height":2,"pattern":"uniform","buffer_flits":100000000}`, "buffer_flits"},
	}
	for _, tc := range cases {
		_, err := Parse(strings.NewReader(tc.src))
		if err == nil {
			t.Fatalf("%s: Parse accepted %q", tc.name, tc.src)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.want)
		}
	}
}

func TestLibraryCompiles(t *testing.T) {
	specs := Library()
	if len(specs) == 0 {
		t.Fatal("empty library")
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Fatalf("library scenario %q invalid: %v", s.Name, err)
		}
		if seen[s.Name] {
			t.Fatalf("duplicate library scenario name %q", s.Name)
		}
		seen[s.Name] = true
	}
	pts, err := Points(specs)
	if err != nil {
		t.Fatal(err)
	}
	// Classic scenarios expand one point per mean-gap load (two each);
	// arrival-process scenarios carry their load in the process
	// parameters and expand to exactly one.
	want := 0
	for _, s := range specs {
		if s.Arrival != nil {
			want++
		} else {
			want += 2
		}
	}
	if len(pts) != want {
		t.Fatalf("library expands to %d points, want %d", len(pts), want)
	}
	arrivals := 0
	for _, s := range specs {
		if s.Arrival != nil {
			arrivals++
		}
	}
	if arrivals < 2 {
		t.Fatalf("library has %d arrival-process scenarios, want >= 2", arrivals)
	}
	for i, p := range pts {
		if p.ID != i {
			t.Fatalf("point %d has ID %d; scenario expansion must number sequentially", i, p.ID)
		}
	}
	libraryScenario(t, "transpose-torus")
}

// execRunner is the sweep Runner of one execution row.
func execRunner(t *testing.T, x simtest.Exec) sweep.Runner {
	t.Helper()
	kernel, err := platform.ParseKernel(x.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	return sweep.Runner{Kernel: kernel, Shards: x.Shards, Workers: x.Workers}
}

// libraryPoints is the library as one sweep grid.
func libraryPoints(t *testing.T) []sweep.Point {
	t.Helper()
	pts, err := Points(Library())
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

// TestLibraryKernelDifferential: every library scenario — all six spatial
// patterns on mesh, torus and the AMBA bus, and the arrival-process ones —
// serialises the same sweep artifact under every kernel, shard count and
// worker count.
func TestLibraryKernelDifferential(t *testing.T) {
	all := libraryPoints(t)
	simtest.Differential(t, "library", simtest.Kernel|simtest.Shards|simtest.Workers|simtest.Split, func(t *testing.T, x simtest.Exec) []byte {
		results, err := execRunner(t, x).Run(simtest.Items(x, all))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			if r.Err != "" {
				t.Fatalf("%v point %d (%s @ %s): %s", x, r.ID, r.Workload, r.Fabric, r.Err)
			}
		}
		return simtest.Render(t, func(w io.Writer) error { return sweep.WriteJSON(w, results) })
	})
}

// TestLibraryPrePassDifferential: with the analytic pre-pass armed, which
// library points are estimated is a pure function of the point, so the
// artifact and the pre-pass report are the same for every worker count.
func TestLibraryPrePassDifferential(t *testing.T) {
	pts := libraryPoints(t)
	for i := range pts {
		pts[i].Analytic = true
	}
	simtest.Differential(t, "library pre-pass", simtest.Workers, func(t *testing.T, x simtest.Exec) []byte {
		results, err := execRunner(t, x).Run(pts)
		if err != nil {
			t.Fatal(err)
		}
		rep := sweep.AnalyticReport(pts)
		return append(simtest.Render(t, func(w io.Writer) error { return sweep.WriteJSON(w, results) }),
			simtest.Render(t, rep.WriteJSON)...)
	})
}

// TestSpecGridRoundTrip: a parsed scenario compiles into a grid whose
// labels carry the pattern and topology, so artifacts stay self-describing.
func TestSpecGridRoundTrip(t *testing.T) {
	specs, err := Parse(strings.NewReader(validSpecJSON()))
	if err != nil {
		t.Fatal(err)
	}
	g, err := specs[0].Grid()
	if err != nil {
		t.Fatal(err)
	}
	pts := g.Expand()
	if len(pts) != 1 {
		t.Fatalf("expanded %d points, want 1", len(pts))
	}
	label := pts[0].Label()
	for _, want := range []string{"transpose", "torus", "poisson"} {
		if !strings.Contains(label, want) {
			t.Fatalf("label %q does not mention %s", label, want)
		}
	}
}

func TestSpecMeasureCompilation(t *testing.T) {
	s := Spec{
		Name:   "phased",
		Fabric: "amba",
		Width:  2, Height: 2,
		Pattern:  "uniform",
		MeanGaps: []float64{8},
		Count:    100,
		Warmup:   500, EpochCycles: 1000, Epochs: 4, Drain: 200,
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	m := s.Measure()
	if m == nil {
		t.Fatal("measurement fields must compile to a sweep.Measure")
	}
	want := sweep.Measure{WarmupCycles: 500, EpochCycles: 1000, Epochs: 4, DrainCycles: 200}
	if *m != want {
		t.Fatalf("measure = %+v, want %+v", *m, want)
	}
	g, err := s.Grid()
	if err != nil {
		t.Fatal(err)
	}
	if g.Measure == nil || *g.Measure != want {
		t.Fatalf("grid measure = %+v", g.Measure)
	}
	for _, p := range g.Expand() {
		if p.Measure == nil || *p.Measure != want {
			t.Fatalf("point measure = %+v", p.Measure)
		}
	}
	// No measurement fields -> classic accounting.
	s.Warmup, s.EpochCycles, s.Epochs, s.Drain = 0, 0, 0, 0
	if s.Measure() != nil {
		t.Fatal("zero measurement fields must compile to nil")
	}
}

func TestSpecMeasureValidation(t *testing.T) {
	base := Spec{
		Name:   "phased",
		Fabric: "amba",
		Width:  2, Height: 2,
		Pattern:  "uniform",
		MeanGaps: []float64{8},
		Count:    100,
	}
	bad := base
	bad.CITarget = 0.05 // adaptive mode without epoch_cycles
	if err := bad.Validate(); err == nil {
		t.Fatal("ci_target without epoch_cycles must be rejected")
	}
	bad = base
	bad.CurveGaps = []float64{8, -1}
	if err := bad.Validate(); err == nil {
		t.Fatal("negative curve gap must be rejected")
	}
	// Measurement fields survive the strict JSON loader.
	src := `{"name":"p","fabric":"amba","width":2,"height":2,"pattern":"uniform",
		"count":100,"warmup":500,"epoch_cycles":1000,"ci_target":0.05,
		"curve_gaps":[24,12,6]}`
	specs, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if m := specs[0].Measure(); m == nil || m.CITarget != 0.05 {
		t.Fatalf("parsed measure = %+v", m)
	}
}

// TestParseRejectsExecutionKnobs: how a scenario is executed (shards,
// retry) is the sweep.Runner's business, so a scenario file carrying such a
// field fails with the strict loader's named unknown-field error rather
// than silently ignoring it.
func TestParseRejectsExecutionKnobs(t *testing.T) {
	const base = `{"name":"r","fabric":"xpipes","width":2,"height":2,"pattern":"uniform","count":100`
	for field, src := range map[string]string{
		"shards": base + `,"shards":2}`,
		"retry":  base + `,"retry":{"max_attempts":3,"backoff_ms":50,"deadline_ms":60000}}`,
	} {
		_, err := Parse(strings.NewReader(src))
		if want := `unknown field "` + field + `"`; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("scenario file with %s: error %v, want %s", field, err, want)
		}
	}
	if _, err := Parse(strings.NewReader(base + "}")); err != nil {
		t.Fatalf("the same scenario without execution knobs must load: %v", err)
	}
}

func TestSpecCurveCompilation(t *testing.T) {
	s := libraryScenario(t, "hotspot-amba")
	cs, err := s.Curve()
	if err != nil {
		t.Fatal(err)
	}
	if cs.Name != "hotspot-amba" || cs.Measure != DefaultCurveMeasure {
		t.Fatalf("curve spec = %+v", cs)
	}
	if len(cs.Gaps) != 0 {
		t.Fatalf("library scenario must inherit the stock gap axis, got %v", cs.Gaps)
	}
	s.CurveGaps = []float64{24, 6}
	s.ClockPeriodsNS = []uint64{10, 5}
	s.Seeds = []int64{7, 8}
	if cs, err = s.Curve(); err != nil {
		t.Fatal(err)
	}
	if len(cs.Gaps) != 2 || cs.ClockPeriodNS != 10 || cs.Seed != 7 {
		t.Fatalf("curve spec axes = %+v", cs)
	}
	// Every classic library scenario must compile to a runnable curve;
	// arrival-process scenarios have no mean-gap axis and must refuse
	// with a clear error instead.
	for _, lib := range Library() {
		_, err := lib.Curve()
		if lib.Arrival != nil {
			if err == nil || !strings.Contains(err.Error(), "arrival") {
				t.Fatalf("%s: arrival scenario curve error = %v", lib.Name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", lib.Name, err)
		}
	}
}

// TestLibraryCurveSaturation is the acceptance gate for the load-latency
// runner: representative library scenarios (both fabrics, mesh and torus)
// must produce curves with a detected saturation point.
func TestLibraryCurveSaturation(t *testing.T) {
	names := []string{"hotspot-amba", "hotspot-mesh", "uniform-torus"}
	var specs []Spec
	for _, n := range names {
		s := libraryScenario(t, n)
		// Trim the light-load tail to keep the test fast; the knee sits at
		// the heavy end of the axis.
		s.CurveGaps = []float64{24, 8, 4, 2, 1, 0.5}
		specs = append(specs, s)
	}
	css, err := Curves(specs)
	if err != nil {
		t.Fatal(err)
	}
	curves, err := sweep.Runner{}.RunCurves(css)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range curves {
		for _, p := range c.Points {
			if p.Err != "" {
				t.Fatalf("%s gap %g: %s", c.Name, p.MeanGap, p.Err)
			}
		}
		if c.Saturation == nil {
			t.Errorf("%s: no saturation point detected", c.Name)
			continue
		}
		sat := c.Saturation
		if sat.Index <= 0 || sat.Index >= len(c.Points) || sat.ThroughputTPK <= 0 {
			t.Errorf("%s: implausible saturation %+v", c.Name, sat)
		}
		// Latency must be higher at the saturation point than at light load.
		if c.Points[sat.Index].LatencyMean <= c.Points[0].LatencyMean {
			t.Errorf("%s: saturation latency %g not above zero-load %g",
				c.Name, c.Points[sat.Index].LatencyMean, c.Points[0].LatencyMean)
		}
	}
}

// TestLibraryCurveDifferential: the library's adaptive load-latency curves
// — estimator-seeded, refined in lockstep rounds — serialise the same
// artifact under every kernel, shard count and worker count.
func TestLibraryCurveDifferential(t *testing.T) {
	css, err := Curves(Library())
	if err != nil {
		t.Fatal(err)
	}
	for i := range css {
		css[i].Mode = sweep.CurveModeAdaptive
	}
	simtest.Differential(t, "library adaptive curves", simtest.Kernel|simtest.Shards|simtest.Workers|simtest.Split, func(t *testing.T, x simtest.Exec) []byte {
		curves, err := execRunner(t, x).RunCurves(simtest.Items(x, css))
		if err != nil {
			t.Fatal(err)
		}
		return simtest.Render(t, func(w io.Writer) error { return sweep.WriteCurvesJSON(w, curves) })
	})
}

// TestScenarioGridParity pins "one validator": each row's field values,
// written once as a scenario file and once as the equivalent grid file,
// are accepted by both loaders or refused by both.
func TestScenarioGridParity(t *testing.T) {
	type row struct {
		name         string
		w, h         int // logical core grid: cores = w·h
		count        int
		gap          float64 // 0 = omitted: both formats take the default
		fabric, topo string
		meshW, meshH int
		buffer       int
		waitStates   uint64
		pattern      string
		ok           bool
	}
	base := row{w: 2, h: 2, count: 100, gap: 8, fabric: "xpipes", pattern: "uniform", ok: true}
	with := func(name string, ok bool, edit func(*row)) row {
		r := base
		r.name, r.ok = name, ok
		edit(&r)
		return r
	}
	rows := []row{
		with("baseline", true, func(*row) {}),
		with("112 cores", true, func(r *row) { r.w, r.h = 16, 7 }),
		with("128 cores", false, func(r *row) { r.w, r.h = 16, 8 }),
		with("count at cap", true, func(r *row) { r.count = 10_000_000 }),
		with("count over cap", false, func(r *row) { r.count = 10_000_001 }),
		with("negative count", false, func(r *row) { r.count = -7 }),
		with("default gap", true, func(r *row) { r.gap = 0 }),
		with("fractional gap", true, func(r *row) { r.gap = 0.5 }),
		with("gap at cap", true, func(r *row) { r.gap = 1e9 }),
		with("gap over cap", false, func(r *row) { r.gap = 2e9 }),
		with("negative gap", false, func(r *row) { r.gap = -4 }),
		with("64x64 mesh", true, func(r *row) { r.meshW, r.meshH = 64, 64 }),
		with("65-wide mesh", false, func(r *row) { r.meshW, r.meshH = 65, 2 }),
		with("negative mesh", false, func(r *row) { r.meshW, r.meshH = -2, 4 }),
		with("1024x1024 mesh", false, func(r *row) { r.meshW, r.meshH = 1024, 1024 }),
		with("64-flit buffer", true, func(r *row) { r.buffer = 64 }),
		with("65-flit buffer", false, func(r *row) { r.buffer = 65 }),
		with("negative buffer", false, func(r *row) { r.buffer = -3 }),
		with("torus", true, func(r *row) { r.topo = "torus" }),
		with("ring topology", false, func(r *row) { r.topo = "ring" }),
		with("amba", true, func(r *row) { r.fabric = "amba" }),
		with("amba with topology", false, func(r *row) { r.fabric, r.topo = "amba", "torus" }),
		with("unknown pattern", false, func(r *row) { r.pattern = "zipf" }),
		with("wait states at cap", true, func(r *row) { r.waitStates = 1 << 16 }),
		with("wait states over cap", false, func(r *row) { r.waitStates = 1<<16 + 1 }),
		with("wrapping wait states", false, func(r *row) { r.fabric, r.waitStates = "amba", 1<<64-1 }),
	}
	for _, r := range rows {
		scen := map[string]any{"name": "p", "fabric": r.fabric, "topology": r.topo,
			"width": r.w, "height": r.h, "pattern": r.pattern, "count": r.count,
			"mesh_width": r.meshW, "mesh_height": r.meshH, "buffer_flits": r.buffer,
			"mem_wait_states": r.waitStates}
		work := map[string]any{"kind": "stochastic", "dist": "poisson", "cores": r.w * r.h,
			"count": r.count, "pattern": r.pattern, "pattern_w": r.w, "pattern_h": r.h}
		if r.gap != 0 {
			scen["mean_gaps"] = []float64{r.gap}
			work["mean_gap"] = r.gap
		}
		grid := map[string]any{"workloads": []any{work}, "fabrics": []any{map[string]any{
			"interconnect": r.fabric, "topology": r.topo,
			"mesh_width": r.meshW, "mesh_height": r.meshH, "buffer_flits": r.buffer,
			"mem_wait_states": r.waitStates}}}
		_, scenErr := Parse(strings.NewReader(mustJSON(t, scen)))
		_, gridErr := sweep.ParseGrid(strings.NewReader(mustJSON(t, grid)))
		if (scenErr == nil) != r.ok || (gridErr == nil) != r.ok {
			t.Errorf("%s: scenario error %v, grid error %v; want both accepted = %v", r.name, scenErr, gridErr, r.ok)
		}
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
