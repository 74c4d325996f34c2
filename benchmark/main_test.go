package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"noctg/internal/sweep"
)

// benchmarkJSON mirrors the driver's BENCHMARK.json schema.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSelfTest runs every workload once at the -short sizes, traced, and
// holds the output to BENCHMARK.json: every workload and metric named
// there is emitted exactly once with its unit, within the schema's limits.
func TestSelfTest(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	names := map[string]bool{}
	claim := func(kind, name, unit string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q outside [A-Za-z0-9_.-]", kind, name)
		}
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s %s: unit %q outside the schema", kind, name, unit)
		}
		if names[name] {
			t.Errorf("name %q used twice in BENCHMARK.json", name)
		}
		names[name] = true
	}
	for _, w := range b.Workloads {
		claim("workload", w.Name, "")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range b.EndToEnd {
		claim("end-to-end", m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("BENCHMARK.json lacks setup_s in s, lower is better")
	}
	for _, m := range b.PerLayer {
		claim("per-layer", m.Name, m.Unit)
	}

	doc, err := runAll(options{seed: 1, short: true, trace: true, repeats: 1, log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	if !doc.Short || !doc.Traced {
		t.Error("a -short -trace run must be labelled as such")
	}
	byName := map[string]workloadResult{}
	for _, w := range doc.Workloads {
		if _, dup := byName[w.Name]; dup {
			t.Errorf("workload %s emitted twice", w.Name)
		}
		byName[w.Name] = w
	}
	if len(byName) != len(b.Workloads) {
		t.Errorf("run emitted %d workloads, BENCHMARK.json names %d", len(byName), len(b.Workloads))
	}
	for _, bw := range b.Workloads {
		w, ok := byName[bw.Name]
		if !ok {
			t.Errorf("workload %s not emitted", bw.Name)
			continue
		}
		if w.Failed != 0 {
			// Includes the shim passes' own checks: a shimmed simulation
			// must finish on the cycle the unshimmed one did.
			t.Errorf("%s: %d failed: %v", w.Name, w.Failed, w.FailedChecks)
		}
		untraced, traced := contractLine(w, false), contractLine(w, true)
		if len(untraced.Metrics) != len(b.EndToEnd) {
			t.Errorf("%s: untraced line has %d metrics, BENCHMARK.json %d", w.Name, len(untraced.Metrics), len(b.EndToEnd))
		}
		for _, m := range b.EndToEnd {
			got, ok := untraced.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s: end-to-end %s [%s] emitted as %+v (present %v)", w.Name, m.Name, m.Unit, got, ok)
			}
			if got.Value <= 0 {
				t.Errorf("%s: end-to-end %s = %g, must never be 0", w.Name, m.Name, got.Value)
			}
		}
		if len(traced.Metrics) != len(b.PerLayer) {
			t.Errorf("%s: traced line has %d metrics, BENCHMARK.json %d", w.Name, len(traced.Metrics), len(b.PerLayer))
		}
		for _, m := range b.PerLayer {
			if got, ok := traced.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: per-layer %s [%s] emitted as %+v (present %v)", w.Name, m.Name, m.Unit, got, ok)
			}
		}
	}
	// The bounded timings are the unscaled ones times one factor per workload.
	for _, w := range doc.Workloads {
		raw, speed, wall := w.PerLayer["proc.wall_raw_s"], w.PerLayer["proc.host_speed"].Median, w.EndToEnd["wall_s"]
		if speed <= 0 || len(raw.Samples) != len(wall.Samples) {
			t.Errorf("%s: host_speed %g, %d raw and %d scaled wall samples", w.Name, speed, len(raw.Samples), len(wall.Samples))
			continue
		}
		for i, x := range raw.Samples {
			if got := wall.Samples[i]; math.Abs(got-x*speed) > 1e-12*x {
				t.Errorf("%s: wall_s sample %d = %g, want raw %g x host_speed %g", w.Name, i, got, x, speed)
			}
		}
	}
	// The shim pass ran where it is defined.
	for workload, metric := range map[string]string{"paper_tg_amba": "core.tick_share",
		"library_xpipes": "noc.fabric_share", "mesh16_sharded": "stochastic.tick_share"} {
		if byName[workload].PerLayer[metric].NA {
			t.Errorf("%s: shim metric %s missing", workload, metric)
		}
	}
	// Every round of the shard ratios divides by its own configuration's
	// wall, whichever order the round ran in.
	mesh := byName["mesh16_sharded"].PerLayer
	speedup, overhead := mesh["shard.speedup_2"].Samples, mesh["shard.overhead_1"].Samples
	if len(speedup) < 2 || len(speedup) != len(overhead) {
		t.Errorf("shard ratios: %d and %d samples, want two rounds of each", len(speedup), len(overhead))
	}
	for i := range min(len(speedup), len(overhead)) {
		if speedup[i] == overhead[i] {
			t.Errorf("round %d: shard.speedup_2 = shard.overhead_1 = %g, the same quotient twice", i, speedup[i])
		}
	}
	// The definitions in code and in BENCHMARK.json are one list.
	for _, d := range endToEndDefs {
		if !names[d.Name] {
			t.Errorf("end-to-end %s missing from BENCHMARK.json", d.Name)
		}
	}
	for _, d := range perLayerDefs {
		if !names[d.Name] {
			t.Errorf("per-layer %s missing from BENCHMARK.json", d.Name)
		}
	}

	// The result file round-trips for every metric kind.
	var buf bytes.Buffer
	if err := encodeJSON(&buf, doc); err != nil {
		t.Fatal(err)
	}
	back, err := decodeDocument(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc, back) {
		t.Error("result document changed across encode → decode")
	}
	kinds := map[string]bool{}
	for _, st := range back.Workloads[0].PerLayer {
		kinds[st.Kind] = true
	}
	for _, k := range []string{kindCount, kindUnit, kindSpan, kindShim, kindRatio, kindProc} {
		if !kinds[k] {
			t.Errorf("round trip covered no %s metric", k)
		}
	}
	if len(back.Spans) == 0 {
		t.Error("traced run recorded no spans")
	}
}

func failedChecks(checks []check) int {
	n := 0
	for _, c := range checks {
		if c.err != nil {
			n++
		}
	}
	return n
}

// TestVerifyCatchesCorruption corrupts a body's result and expects verify
// to raise failed_share.
func TestVerifyCatchesCorruption(t *testing.T) {
	cfg := &config{seed: 1, sz: shortSizes(), nproc: 1, tmp: t.TempDir()}
	t.Run("paper_tg_amba", func(t *testing.T) {
		w := &paperTG{cfg: cfg}
		if err := w.setup(); err != nil {
			t.Fatal(err)
		}
		out, err := w.body(nil)
		if err != nil {
			t.Fatal(err)
		}
		if n := failedChecks(w.verify(out)); n != 0 {
			t.Fatalf("clean result failed %d checks", n)
		}
		out.data.([]*paperRow)[0].tgMakespans[0]++
		if failedChecks(w.verify(out)) == 0 {
			t.Error("verify accepted a corrupted makespan")
		}
	})
	t.Run("library_xpipes", func(t *testing.T) {
		w := &libraryXPipes{cfg: cfg}
		if err := w.setup(); err != nil {
			t.Fatal(err)
		}
		out, err := w.body(nil)
		if err != nil {
			t.Fatal(err)
		}
		if n := failedChecks(w.verify(out)); n != 0 {
			t.Fatalf("clean result failed %d checks", n)
		}
		out.data.([]sweep.Result)[0].FlitsRouted++
		if failedChecks(w.verify(out)) == 0 {
			t.Error("verify accepted a corrupted result")
		}
	})
}

// TestCompareRefusesMismatch: a set with a workload dropped, another seed,
// the self-test sizes or a metric missing must not compare as "0 regressed".
func TestCompareRefusesMismatch(t *testing.T) {
	mk := func() *document {
		doc := &document{Schema: schemaName, Seed: 1}
		for _, name := range []string{"paper_tg_amba", "mesh16_sharded"} {
			m := metricSet{}
			m.add("wall_s", 1)
			doc.Workloads = append(doc.Workloads, workloadResult{Name: name, EndToEnd: m.finish(endToEndDefs)})
		}
		return doc
	}
	if code := compareDocuments(mk(), mk(), io.Discard); code != 0 {
		t.Fatalf("identical sets compare with exit code %d", code)
	}
	for name, spoil := range map[string]func(*document){
		"workload dropped": func(d *document) { d.Workloads = d.Workloads[:1] },
		"other seed":       func(d *document) { d.Seed = 2 },
		"short sizes":      func(d *document) { d.Short = true },
		"traced":           func(d *document) { d.Traced = true },
		"metric missing": func(d *document) {
			d.Workloads[1].EndToEnd["wall_s"] = summarize(endToEndDefs[0], nil)
		},
	} {
		b := mk()
		spoil(b)
		var out bytes.Buffer
		if code := compareDocuments(mk(), b, &out); code == 0 || !strings.Contains(out.String(), "NOT COMPARABLE") {
			t.Errorf("%s: exit code %d, output lacks NOT COMPARABLE", name, code)
		}
		if code := compareDocuments(b, mk(), io.Discard); code == 0 {
			t.Errorf("%s (sides swapped): exit code 0", name)
		}
	}
}

func TestJudge(t *testing.T) {
	wall := endToEndDefs[0] // wall_s: lower is better, 25 %
	st := func(samples ...float64) stat { return summarize(wall, samples) }
	for _, c := range []struct {
		name string
		a, b stat
		want string
	}{
		{"tight and equal", st(1.00, 1.01, 1.02), st(1.00, 1.02, 1.03), verdictUnchanged},
		{"slower beyond the bound", st(1.00, 1.01, 1.02), st(1.40, 1.41, 1.42), verdictRegressed},
		{"faster beyond the bound", st(1.40, 1.41, 1.42), st(1.00, 1.01, 1.02), verdictImproved},
		{"within the bound but noisy", st(0.80, 1.00, 1.40), st(0.85, 1.05, 1.35), verdictUnresolved},
		{"noisy but every run faster", st(1.00, 1.10, 1.40), st(0.91, 0.95, 0.99), verdictImproved},
	} {
		if got, _ := judge(wall, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	failed := endToEndDefs[3]
	if got, _ := judge(failed, summarize(failed, []float64{0}), summarize(failed, []float64{0.01})); got != verdictRegressed {
		t.Errorf("any failed_share increase must regress, got %s", got)
	}
}
