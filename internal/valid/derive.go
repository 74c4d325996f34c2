package valid

import (
	"fmt"
	"math"

	"noctg/internal/sweep"
)

// deriveDraws is the capture size for scenario-derived sources: enough for
// the CI and KS checks without dominating a -validate run's wall clock.
const deriveDraws = 25000

// FromPoint derives a validation source from a sweep point's workload,
// attaching every analytic expectation the configuration supports: the
// offered-load CI always, the exact gap CDF for Poisson and integral-width
// Uniform draws, and the finite-window IDC band for two-state exponential
// MMPPs. It reports false for workloads the harness has no analytic spec
// for (TG replays, Gaussian and legacy-bursty gaps, fractional uniform
// widths); validation is open-loop, so the point's fabric is irrelevant
// and points differing only by fabric derive the same source.
func FromPoint(p sweep.Point) (Source, bool) {
	w := p.Workload
	if w.Kind != sweep.KindStochastic {
		return Source{}, false
	}
	cfg, err := w.StochasticConfig(p.Seed)
	if err != nil {
		return Source{}, false
	}
	cfg.Spatial = nil // open-loop capture targets a plain range, not a grid
	src := Source{
		Name:   fmt.Sprintf("%s/s%d", w.Label(), p.Seed),
		Config: cfg,
		Draws:  deriveDraws,
	}
	switch {
	case cfg.MMPP != nil:
		src.Rate = discRate(cfg.MMPP.Rate())
		if len(cfg.MMPP.StateGaps) == 2 && !cfg.MMPP.Deterministic {
			g, d := cfg.MMPP.StateGaps, cfg.MMPP.StateDwells
			// Window the IDC at twice the realized on/off period and accept
			// a wide band around the analytic curve: scenario-derived
			// configurations are arbitrary, so the check asserts the
			// variance-time shape rather than a tuned constant.
			period := realDwell(g[0], d[0]) + realDwell(g[1], d[1])
			t := 2 * period
			ana := mmpp2IDC(g[0], g[1], d[0], d[1], t)
			src.IDCWindow = uint64(t)
			src.IDCLow, src.IDCHigh = 0.4*ana, 1.6*ana
		}
	case cfg.SelfSimilar != nil:
		src.Rate = discRate(cfg.SelfSimilar.Rate())
	default:
		m := cfg.MeanGap
		if m == 0 {
			m = 10 // generator default
		}
		switch w.Dist {
		case "poisson":
			src.Rate = expGapRate(m)
			src.GapCDF, src.GapCDFName = expGapCDF(m), "exp"
		case "uniform":
			l := 2 * m
			if l != math.Trunc(l) {
				return Source{}, false
			}
			src.Rate = 1 / (1 + (l-1)/2)
			src.GapCDF, src.GapCDFName = uniformGapCDF(l), "uniform"
		default:
			return Source{}, false
		}
	}
	return src, true
}

// realDwell is a state's realized duration: the virtual dwell stretched by
// one handshake cycle per injection.
func realDwell(gap, d float64) float64 {
	if gap == 0 {
		return d
	}
	return d * (gap + 1) / gap
}
