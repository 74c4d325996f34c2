package valid

import (
	"math"
	"math/rand"
	"testing"

	"noctg/internal/simtest"
	"noctg/internal/stochastic"
)

// TestStockSourcesPass is the fidelity gate: every stock source must pass
// every analytic check. Failures print the offending check with its band.
func TestStockSourcesPass(t *testing.T) {
	rep := Validate(StockSources(), 4)
	for _, s := range rep.Sources {
		for _, c := range s.Checks {
			if !c.Pass {
				t.Errorf("%s: %s = %g outside [%g, %g] (target %g)",
					s.Source, c.Name, c.Value, c.Low, c.High, c.Target)
			}
		}
	}
	if !rep.Pass {
		t.Fatal("fidelity report failed")
	}
}

// TestReportWorkerByteIdentical: the worker pool must not leak scheduling
// order into the fidelity report of the stock sources. (The harness takes
// no kernel: its always-awake capture clock pins every kernel to the same
// cycle schedule.)
func TestReportWorkerByteIdentical(t *testing.T) {
	srcs := StockSources()
	for i := range srcs {
		srcs[i].Draws /= 4
	}
	simtest.Differential(t, "stock fidelity report", simtest.Workers, func(t *testing.T, x simtest.Exec) []byte {
		return simtest.Render(t, Validate(srcs, x.Workers).WriteJSON)
	})
}

// TestHarnessDetectsDrift is the negative control: a source whose spec
// deliberately misstates the analytic rate (2× too high) must fail the
// offered-load CI, and one with wrong class shares must fail the χ² check.
// A harness that cannot fail validates nothing.
func TestHarnessDetectsDrift(t *testing.T) {
	wrongRate := Source{
		Name:   "wrong-rate",
		Config: stochastic.Config{Dist: stochastic.Poisson, MeanGap: 10, Seed: 1},
		Draws:  8000,
		Rate:   2 * expGapRate(10),
	}
	rep := CheckSource(wrongRate)
	if rep.Pass {
		t.Error("2x-wrong rate spec passed the offered-load CI")
	}
	wrongClasses := Source{
		Name: "wrong-classes",
		Config: stochastic.Config{Dist: stochastic.Poisson, MeanGap: 6, Seed: 7,
			Classes: []float64{5, 3, 2}},
		Draws:      8000,
		Rate:       expGapRate(6),
		ClassProbs: []float64{0.2, 0.3, 0.5},
	}
	rep = CheckSource(wrongClasses)
	if rep.Pass {
		t.Error("mis-stated class shares passed the chi-square check")
	}
	wrongCDF := Source{
		Name:   "wrong-cdf",
		Config: stochastic.Config{Dist: stochastic.Uniform, MeanGap: 10, Seed: 2},
		Draws:  8000,
		Rate:   1 / (1 + 9.5),
		GapCDF: expGapCDF(10), GapCDFName: "exp",
	}
	rep = CheckSource(wrongCDF)
	if rep.Pass {
		t.Error("uniform gaps passed a KS test against the exponential CDF")
	}
}

// TestRandomizedMMPPRateCI is the property-test half: seeded-random MMPP
// configurations must all land their offered load inside the CI of their
// own analytic rate.
func TestRandomizedMMPPRateCI(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 6; i++ {
		states := 2 + rng.Intn(2)
		m := &stochastic.MMPP{}
		for s := 0; s < states; s++ {
			gap := float64(2 + rng.Intn(10))
			if s > 0 && rng.Intn(3) == 0 {
				gap = 0
			}
			m.StateGaps = append(m.StateGaps, gap)
			m.StateDwells = append(m.StateDwells, float64(100+rng.Intn(300)))
		}
		m.Deterministic = rng.Intn(2) == 0
		src := Source{
			Name:   "random-mmpp",
			Config: stochastic.Config{Seed: int64(1000 + i), MMPP: m},
			Draws:  20000,
			Rate:   discRate(m.Rate()),
		}
		rep := CheckSource(src)
		if !rep.Pass {
			t.Errorf("config %d (%+v): %+v", i, m, rep.Checks)
		}
	}
}

// Unit checks for the estimators themselves.

func TestKSDistanceExact(t *testing.T) {
	// Empirical == analytic: one sample of each value 1..n against the
	// discrete uniform CDF gives the minimal attainable distance 0.
	n := 1000
	xs := make([]uint64, n)
	for i := range xs {
		xs[i] = uint64(i + 1)
	}
	if d := ksDistance(xs, uniformGapCDF(float64(n))); d > 1e-9 {
		t.Errorf("exact-match KS distance = %g, want 0", d)
	}
	// A point mass at 1 against the same CDF has distance 1 − 1/n.
	ones := make([]uint64, n)
	for i := range ones {
		ones[i] = 1
	}
	if d := ksDistance(ones, uniformGapCDF(float64(n))); math.Abs(d-(1-1.0/float64(n))) > 1e-9 {
		t.Errorf("point-mass KS distance = %g, want %g", d, 1-1.0/float64(n))
	}
}

func TestHurstOfIndependentCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	counts := make([]float64, 1<<13)
	for i := range counts {
		counts[i] = float64(rng.Intn(10))
	}
	h := aggVarHurst(counts, 16)
	if math.Abs(h-0.5) > 0.1 {
		t.Errorf("iid counts Hurst = %g, want ~0.5", h)
	}
}

func TestMeanCICoversTrueMean(t *testing.T) {
	xs := []float64{9, 10, 11, 10, 9, 11, 10, 10}
	mean, half := meanCI(xs)
	if mean != 10 {
		t.Fatalf("mean = %g", mean)
	}
	if half <= 0 || half > 2 {
		t.Fatalf("CI half-width = %g", half)
	}
}
