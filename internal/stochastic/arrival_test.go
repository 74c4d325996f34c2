package stochastic

import (
	"math"
	"testing"

	"noctg/internal/ocp"
)

var testRange = []ocp.AddrRange{{Base: 0, Size: 0x100}}

func TestArrivalValidation(t *testing.T) {
	bad := []struct {
		name string
		cfg  Config
	}{
		{"one-state mmpp", Config{MMPP: &MMPP{StateGaps: []float64{4}, StateDwells: []float64{100}}}},
		{"dwell/gap mismatch", Config{MMPP: &MMPP{StateGaps: []float64{4, 0}, StateDwells: []float64{100}}}},
		{"all-silent mmpp", Config{MMPP: &MMPP{StateGaps: []float64{0, 0}, StateDwells: []float64{100, 100}}}},
		{"negative gap", Config{MMPP: &MMPP{StateGaps: []float64{-1, 4}, StateDwells: []float64{100, 100}}}},
		{"sub-cycle dwell", Config{MMPP: &MMPP{StateGaps: []float64{4, 8}, StateDwells: []float64{0.5, 100}}}},
		{"nan dwell", Config{MMPP: &MMPP{StateGaps: []float64{4, 8}, StateDwells: []float64{math.NaN(), 100}}}},
		{"zero sources", Config{SelfSimilar: &SelfSimilar{Sources: 0, Hurst: 0.8, OnMean: 10, OffMean: 10, PeakGap: 2}}},
		{"too many sources", Config{SelfSimilar: &SelfSimilar{Sources: MaxSources + 1, Hurst: 0.8, OnMean: 10, OffMean: 10, PeakGap: 2}}},
		{"hurst too low", Config{SelfSimilar: &SelfSimilar{Sources: 4, Hurst: 0.5, OnMean: 10, OffMean: 10, PeakGap: 2}}},
		{"hurst too high", Config{SelfSimilar: &SelfSimilar{Sources: 4, Hurst: 0.96, OnMean: 10, OffMean: 10, PeakGap: 2}}},
		{"zero peak gap", Config{SelfSimilar: &SelfSimilar{Sources: 4, Hurst: 0.8, OnMean: 10, OffMean: 10}}},
		{"both processes", Config{
			MMPP:        &MMPP{StateGaps: []float64{4, 0}, StateDwells: []float64{100, 100}},
			SelfSimilar: &SelfSimilar{Sources: 4, Hurst: 0.8, OnMean: 10, OffMean: 10, PeakGap: 2}}},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: New should panic", tc.name)
				}
			}()
			cfg := tc.cfg
			cfg.Ranges = testRange
			New(0, cfg, nopPort{})
		})
	}
}

func TestArrivalSourcesComplete(t *testing.T) {
	cfgs := map[string]Config{
		"mmpp-onoff": {MMPP: &MMPP{StateGaps: []float64{3, 0}, StateDwells: []float64{80, 160}}},
		"mmpp-det": {MMPP: &MMPP{StateGaps: []float64{4, 16}, StateDwells: []float64{100, 200},
			Deterministic: true}},
		"selfsim": {SelfSimilar: &SelfSimilar{Sources: 8, Hurst: 0.8, OnMean: 50, OffMean: 100, PeakGap: 4}},
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			cfg.Count = 300
			cfg.Seed = 1
			g, _ := run(t, cfg)
			if g.Issued() != 300 {
				t.Fatalf("issued %d of 300", g.Issued())
			}
			if g.Latency.Count() == 0 {
				t.Fatal("no read latencies observed")
			}
		})
	}
}

// openLoopRate sums N open-loop inter-injection times (gap + the 1-cycle
// handshake) and returns injections per cycle.
func openLoopRate(t *testing.T, cfg Config, n int) float64 {
	t.Helper()
	cfg.Ranges = testRange
	g := New(0, cfg, nopPort{})
	var total uint64
	for i := 0; i < n; i++ {
		total += g.nextGap() + 1
	}
	return float64(n) / float64(total)
}

func TestMMPPRateMatchesAnalytic(t *testing.T) {
	m := &MMPP{StateGaps: []float64{3, 0}, StateDwells: []float64{300, 600}}
	want := m.Rate() / (1 + m.Rate())
	got := openLoopRate(t, Config{MMPP: m, Seed: 11}, 40_000)
	if rel := math.Abs(got-want) / want; rel > 0.05 {
		t.Fatalf("mmpp rate %.4f vs analytic %.4f (%.1f%% off)", got, want, rel*100)
	}
}

func TestDeterministicMMPPRateMatchesAnalytic(t *testing.T) {
	m := &MMPP{StateGaps: []float64{4, 16}, StateDwells: []float64{200, 400}, Deterministic: true}
	want := m.Rate() / (1 + m.Rate())
	got := openLoopRate(t, Config{MMPP: m, Seed: 11}, 40_000)
	if rel := math.Abs(got-want) / want; rel > 0.05 {
		t.Fatalf("deterministic mmpp rate %.4f vs analytic %.4f (%.1f%% off)", got, want, rel*100)
	}
}

func TestSelfSimilarRateMatchesAnalytic(t *testing.T) {
	s := &SelfSimilar{Sources: 16, Hurst: 0.75, OnMean: 100, OffMean: 300, PeakGap: 6}
	want := s.Rate() / (1 + s.Rate())
	got := openLoopRate(t, Config{SelfSimilar: s, Seed: 5}, 60_000)
	// Heavy-tailed on/off periods converge slowly; the tight CI check
	// lives in internal/valid where the sample variance sets the band.
	if rel := math.Abs(got-want) / want; rel > 0.25 {
		t.Fatalf("self-similar rate %.4f vs analytic %.4f (%.1f%% off)", got, want, rel*100)
	}
}

func TestMMPPBurstierThanPoisson(t *testing.T) {
	// An on/off chain at the same mean rate as a Poisson source must emit
	// clearly more back-to-back (zero-gap) injections.
	zeroGaps := func(cfg Config) int {
		cfg.Ranges = testRange
		cfg.Seed = 3
		g := New(0, cfg, nopPort{})
		zeros := 0
		for i := 0; i < 20_000; i++ {
			if g.nextGap() == 0 {
				zeros++
			}
		}
		return zeros
	}
	m := &MMPP{StateGaps: []float64{2, 0}, StateDwells: []float64{100, 300}}
	poisson := Config{Dist: Poisson, MeanGap: 1 / m.Rate()}
	if zm, zp := zeroGaps(Config{MMPP: m}), zeroGaps(poisson); zm <= zp*3/2 {
		t.Fatalf("mmpp zero gaps %d not clearly above poisson %d", zm, zp)
	}
}

func TestArrivalDeterministicWithSeed(t *testing.T) {
	cfgs := map[string]Config{
		"mmpp":    {MMPP: &MMPP{StateGaps: []float64{3, 0}, StateDwells: []float64{80, 160}}},
		"selfsim": {SelfSimilar: &SelfSimilar{Sources: 8, Hurst: 0.8, OnMean: 50, OffMean: 100, PeakGap: 4}},
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			gaps := func() []uint64 {
				c := cfg
				c.Ranges = testRange
				c.Seed = 42
				g := New(0, c, nopPort{})
				out := make([]uint64, 500)
				for i := range out {
					out[i] = g.nextGap()
				}
				return out
			}
			a, b := gaps(), gaps()
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("gap %d differs: %d vs %d", i, a[i], b[i])
				}
			}
		})
	}
}
