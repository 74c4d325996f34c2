package sweep

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"noctg/internal/guard"
	"noctg/internal/platform"
	"noctg/internal/simtest"
)

// goldenCurveSpec is the stock curve the curve golden row locks: the
// AMBA hotspot workload (the sharpest saturation knee in the library
// corpus) over a short load ladder, adaptive epochs to a ±5% CI.
func goldenCurveSpec() CurveSpec {
	return CurveSpec{
		Name: "hotspot-amba",
		Workload: Workload{
			Kind: KindStochastic, Dist: "poisson", Cores: 4,
			Pattern: "hotspot", PatternW: 2, PatternH: 2,
			Hotspot: []float64{0, 0, 0.6},
		},
		Fabric: Fabric{Interconnect: FabricAMBA},
		Gaps:   []float64{24, 12, 6, 4, 3, 2},
		Measure: Measure{
			WarmupCycles: 1000,
			EpochCycles:  2000,
			CITarget:     0.05,
		},
	}
}

// runCurve measures one curve through RunCurves.
func runCurve(t *testing.T, r Runner, spec CurveSpec) Curve {
	t.Helper()
	curves, err := r.RunCurves([]CurveSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	return curves[0]
}

// TestKernelDifferentialCurve: the golden curve serialises the same
// artifact under every kernel, and the reference is the committed golden.
func TestKernelDifferentialCurve(t *testing.T) {
	ref := simtest.Differential(t, "golden curve", simtest.Kernel, curvesCampaign(goldenCurveSpec()))
	simtest.Pin(t, "curve", goldenPath("curve"), ref)
}

// TestCurveWorkerDeterminism: the golden curve serialises the same artifact
// under every worker count, the kernel rotating; the kernels on one worker
// are TestKernelDifferentialCurve's rows.
func TestCurveWorkerDeterminism(t *testing.T) {
	simtest.Differential(t, "golden curve", simtest.Kernel|simtest.Workers|simtest.Rotated, curvesCampaign(goldenCurveSpec()))
}

func TestCurveSpecValidate(t *testing.T) {
	ok := goldenCurveSpec()
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*CurveSpec)
	}{
		{"missing name", func(cs *CurveSpec) { cs.Name = "" }},
		{"tg workload", func(cs *CurveSpec) {
			cs.Workload = Workload{Kind: KindTG, Bench: "mpmatrix", Cores: 2, Size: 8}
		}},
		{"bad gap", func(cs *CurveSpec) { cs.Gaps = []float64{4, 0} }},
		{"bad fabric", func(cs *CurveSpec) { cs.Fabric.Interconnect = "warp" }},
		{"no epoch length", func(cs *CurveSpec) { cs.Measure = Measure{Epochs: 1} }},
		{"bad measure", func(cs *CurveSpec) { cs.Measure.CITarget = 2 }},
	}
	for _, c := range cases {
		cs := goldenCurveSpec()
		c.mutate(&cs)
		if err := cs.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestCurvePanicKeepsPointContext is the PR-7 regression fix: a worker
// panic inside a curve level used to surface as a bare Err string,
// dropping the recovered panic's structured context. The violation must
// now ride the CurvePoint, its message naming the curve and gap.
func TestCurvePanicKeepsPointContext(t *testing.T) {
	spec := goldenCurveSpec()
	spec.Gaps = []float64{24, 6}
	r := Runner{wrap: func(Point, int, platform.Master) platform.Master { panic("injected curve panic") }}
	c := runCurve(t, r, spec)
	for _, p := range c.Points {
		if p.Err == "" || !strings.Contains(p.Err, "injected curve panic") {
			t.Fatalf("gap %g: panic not recorded: %q", p.MeanGap, p.Err)
		}
		if p.Violation == nil || p.Violation.Kind != guard.KindPanic {
			t.Fatalf("gap %g: panic lost its structured violation: %+v", p.MeanGap, p.Violation)
		}
		want := fmt.Sprintf("curve %s gap %g:", spec.Name, p.MeanGap)
		if !strings.Contains(p.Violation.Msg, want) {
			t.Fatalf("gap %g: violation message %q lacks the level context %q",
				p.MeanGap, p.Violation.Msg, want)
		}
		if p.Violation.Stack == "" {
			t.Fatalf("gap %g: recovered panic lost its stack", p.MeanGap)
		}
	}
	// The stack is diagnostic-only: the artifact must exclude it (it
	// embeds host-dependent addresses) while keeping the violation.
	var buf bytes.Buffer
	if err := WriteCurvesJSON(&buf, []Curve{c}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"violation"`)) {
		t.Fatal("curve artifact lacks the violation")
	}
	if bytes.Contains(buf.Bytes(), []byte("goroutine")) {
		t.Fatal("curve artifact leaks the panic stack")
	}
}

// TestCurveRetryRecovers: a transient first-attempt failure on a curve
// level retries under the runner's policy, on the runner's own kernel, and
// the final artifact is byte-identical to a fault-free run.
func TestCurveRetryRecovers(t *testing.T) {
	spec := goldenCurveSpec()
	spec.Gaps = []float64{24, 6}
	simtest.Differential(t, "curve retry", simtest.Kernel, func(t *testing.T, x simtest.Exec) []byte {
		kernel, err := platform.ParseKernel(x.Kernel)
		if err != nil {
			t.Fatal(err)
		}
		render := func(c Curve) []byte {
			var buf bytes.Buffer
			if err := WriteCurvesJSON(&buf, []Curve{c}); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		clean := render(runCurve(t, Runner{Kernel: kernel}, spec))
		retried := render(runCurve(t, Runner{
			Kernel: kernel,
			Retry:  &RetryPolicy{MaxAttempts: 2},
			wrap: func(_ Point, attempt int, m platform.Master) platform.Master {
				if attempt == 1 {
					panic("transient curve panic")
				}
				return m
			},
		}, spec))
		if !bytes.Equal(clean, retried) {
			t.Fatalf("%v: retried curve diverged from the clean run:\n%s\nvs\n%s", x, retried, clean)
		}
		return retried
	})
}

// TestDetectSaturation exercises the knee detector on synthetic curves.
func TestDetectSaturation(t *testing.T) {
	mk := func(offered, tpk, lat []float64) []CurvePoint {
		pts := make([]CurvePoint, len(offered))
		for i := range pts {
			pts[i] = CurvePoint{OfferedTPK: offered[i], ThroughputTPK: tpk[i], LatencyMean: lat[i]}
		}
		return pts
	}

	// Throughput plateau: the marginal criterion fires at the flat tail.
	pts := mk(
		[]float64{100, 200, 400, 800, 1600},
		[]float64{95, 180, 300, 330, 333},
		[]float64{5, 5.5, 7, 9, 10},
	)
	sat := detectSaturation(pts)
	if sat == nil || sat.Index != 3 {
		t.Fatalf("plateau knee: %+v", sat)
	}
	if sat.ThroughputTPK != 333 {
		t.Fatalf("saturation throughput = %g, want the plateau maximum", sat.ThroughputTPK)
	}
	if pts[2].Saturated || !pts[3].Saturated || !pts[4].Saturated {
		t.Fatalf("saturated flags: %+v", pts)
	}

	// Latency blow-up fires even while throughput still creeps upward.
	pts = mk(
		[]float64{100, 200, 400},
		[]float64{95, 180, 340},
		[]float64{5, 8, 20},
	)
	if sat = detectSaturation(pts); sat == nil || sat.Index != 2 {
		t.Fatalf("latency knee: %+v", sat)
	}

	// An unsaturated curve reports nothing.
	pts = mk(
		[]float64{100, 200, 400},
		[]float64{95, 185, 360},
		[]float64{5, 5.2, 5.5},
	)
	if sat = detectSaturation(pts); sat != nil {
		t.Fatalf("unsaturated curve flagged: %+v", sat)
	}

	// A failed lightest level degrades the baseline to the next error-free
	// level instead of discarding the whole curve's detection.
	pts = mk(
		[]float64{100, 200, 400, 800},
		[]float64{0, 180, 340, 350},
		[]float64{0, 8, 26, 30},
	)
	pts[0].Err = "panic: boom"
	if sat = detectSaturation(pts); sat == nil || sat.Index != 2 {
		t.Fatalf("leading-error baseline: %+v", sat)
	}
}
