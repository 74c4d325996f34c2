package valid

import (
	"math"

	"noctg/internal/stochastic"
)

// discRate maps a continuous arrival rate λ (events per virtual-time unit)
// to the realized injection rate: every injection spends one extra
// handshake cycle, so n events take n/λ + n cycles and the discrete rate
// is λ/(1+λ).
func discRate(lambda float64) float64 { return lambda / (1 + lambda) }

// expGapCDF is the exact CDF of the legacy Poisson inter-injection time:
// the generator floors an Exp(m) draw and adds the one-cycle handshake, so
// P(inter ≤ k) = P(Exp(m) < k) = 1 − e^(−k/m) for integer k ≥ 1.
func expGapCDF(m float64) func(float64) float64 {
	return func(k float64) float64 {
		if k < 1 {
			return 0
		}
		return 1 - math.Exp(-k/m)
	}
}

// expGapRate is the realized rate of the legacy Poisson source: the
// floored gap has mean 1/Expm1(1/m) exactly (sum of the survival tail).
func expGapRate(m float64) float64 {
	return 1 / (1 + 1/math.Expm1(1/m))
}

// uniformGapCDF is the exact CDF of the legacy Uniform inter-injection
// time with integer support width L = 2·MeanGap: gaps are uniform on
// 0..L−1, so P(inter ≤ k) = k/L for k = 1..L.
func uniformGapCDF(l float64) func(float64) float64 {
	return func(k float64) float64 {
		if k < 1 {
			return 0
		}
		return math.Min(math.Floor(k)/l, 1)
	}
}

// mmpp2IDC is the finite-window index of dispersion of a two-state
// exponential MMPP in realized time. Per-state realized rates are
// λi = 1/(gapi+1) (zero when silent); a state's realized dwell stretches
// by one handshake cycle per injection, Di = di·(gapi+1)/gapi for emitting
// states. With q = 1/D1 + 1/D2 and stationary shares πi,
//
//	IDC(t) = 1 + 2·π1·π2·(λ1−λ2)²/(q·λ̄) · (1 − (1−e^(−qt))/(qt))
//
// — the classic MMPP variance-time curve, which dominates the renewal-level
// dispersion for the long-dwell stock configurations this harness checks.
func mmpp2IDC(gap1, gap2, d1, d2, t float64) float64 {
	stretch := func(gap, d float64) float64 {
		if gap == 0 {
			return d
		}
		return d * (gap + 1) / gap
	}
	rate := func(gap float64) float64 {
		if gap == 0 {
			return 0
		}
		return 1 / (gap + 1)
	}
	D1, D2 := stretch(gap1, d1), stretch(gap2, d2)
	l1, l2 := rate(gap1), rate(gap2)
	q := 1/D1 + 1/D2
	p1 := (1 / D2) / q
	p2 := 1 - p1
	lbar := p1*l1 + p2*l2
	qt := q * t
	shape := 1 - (1-math.Exp(-qt))/qt
	return 1 + 2*p1*p2*(l1-l2)*(l1-l2)/(q*lbar)*shape
}

// StockSources is the fidelity suite CI runs on every push: one source per
// arrival model, each with a fixed seed and analytic expectations tight
// enough to catch drift in the generators' state machines or their
// discretization, yet wide enough to be deterministic-stable.
func StockSources() []Source {
	onIDC := mmpp2IDC(3, 0, 300, 600, 2000)
	return []Source{
		{
			Name:   "poisson-m10",
			Config: stochastic.Config{Dist: stochastic.Poisson, MeanGap: 10, Seed: 1},
			Draws:  24000,
			Rate:   expGapRate(10),
			GapCDF: expGapCDF(10), GapCDFName: "exp",
			IDCWindow: 64, IDCLow: 0.5, IDCHigh: 1.3,
			// Poisson is the Hurst control: no long-range dependence, H ≈ ½.
			HurstBase: 32, HurstLow: 0.35, HurstHigh: 0.65,
		},
		{
			Name:   "uniform-m10",
			Config: stochastic.Config{Dist: stochastic.Uniform, MeanGap: 10, Seed: 2},
			Draws:  24000,
			Rate:   1 / (1 + 9.5), // E[gap] = (L−1)/2 with L = 20
			GapCDF: uniformGapCDF(20), GapCDFName: "uniform",
			IDCWindow: 64, IDCLow: 0.2, IDCHigh: 1.0,
		},
		{
			Name: "mmpp-onoff",
			Config: stochastic.Config{Seed: 3, MMPP: &stochastic.MMPP{
				StateGaps: []float64{3, 0}, StateDwells: []float64{300, 600}}},
			Draws: 30000,
			Rate:  discRate((&stochastic.MMPP{StateGaps: []float64{3, 0}, StateDwells: []float64{300, 600}}).Rate()),
			// The on/off switching term dominates: the analytic curve gives
			// IDC(2000) ≈ 64, and a ±50% band still sits far above Poisson.
			IDCWindow: 2000, IDCLow: 0.5 * onIDC, IDCHigh: 1.5 * onIDC,
		},
		{
			Name: "mmpp-det",
			Config: stochastic.Config{Seed: 4, MMPP: &stochastic.MMPP{
				StateGaps: []float64{4, 16}, StateDwells: []float64{200, 400},
				Deterministic: true}},
			Draws: 30000,
			Rate:  discRate((&stochastic.MMPP{StateGaps: []float64{4, 16}, StateDwells: []float64{200, 400}}).Rate()),
			// Deterministic dwells make the variance-time curve oscillate
			// with the 675-cycle state period, so the band is a fixed
			// super-Poisson corridor rather than an analytic point.
			IDCWindow: 512, IDCLow: 1.5, IDCHigh: 64,
		},
		{
			Name: "selfsim-h07",
			Config: stochastic.Config{Seed: 5, SelfSimilar: &stochastic.SelfSimilar{
				Sources: 16, Hurst: 0.7, OnMean: 40, OffMean: 120, PeakGap: 8}},
			Draws:     60000,
			Rate:      discRate((&stochastic.SelfSimilar{Sources: 16, Hurst: 0.7, OnMean: 40, OffMean: 120, PeakGap: 8}).Rate()),
			IDCWindow: 256, IDCLow: 1.2, IDCHigh: 200,
			HurstBase: 32, HurstLow: 0.55, HurstHigh: 0.85,
		},
		{
			Name: "selfsim-h085",
			Config: stochastic.Config{Seed: 6, SelfSimilar: &stochastic.SelfSimilar{
				Sources: 16, Hurst: 0.85, OnMean: 60, OffMean: 180, PeakGap: 8}},
			Draws:     60000,
			Rate:      discRate((&stochastic.SelfSimilar{Sources: 16, Hurst: 0.85, OnMean: 60, OffMean: 180, PeakGap: 8}).Rate()),
			IDCWindow: 256, IDCLow: 1.2, IDCHigh: 400,
			HurstBase: 32, HurstLow: 0.65, HurstHigh: 1.0,
		},
	}
}
