package sweep

import (
	"fmt"

	"noctg/internal/stochastic"
)

// Arrival process names.
const (
	// ProcessMMPP is the Markov-modulated (on/off bursty) process.
	ProcessMMPP = "mmpp"
	// ProcessSelfSimilar is the superposed Pareto on/off process.
	ProcessSelfSimilar = "selfsim"
)

// Dwell distribution names for ProcessMMPP.
const (
	DwellExp = "exp"
	DwellDet = "det"
)

// Arrival selects a bursty or self-similar arrival process for a
// stochastic workload, replacing the memoryless dist/mean_gap axis (the
// offered load lives in the process parameters instead).
type Arrival struct {
	// Process is ProcessMMPP or ProcessSelfSimilar.
	Process string `json:"process"`

	// Gaps and Dwells describe the MMPP state chain: per-state mean
	// injection gap (0 = silent state) and per-state mean dwell, both in
	// cycles. DwellDist selects "exp" (default) or "det" dwell times.
	Gaps      []float64 `json:"gaps,omitempty"`
	Dwells    []float64 `json:"dwells,omitempty"`
	DwellDist string    `json:"dwell_dist,omitempty"`

	// Sources, Hurst, OnMean, OffMean and PeakGap describe the
	// self-similar superposition (see stochastic.SelfSimilar).
	Sources int     `json:"sources,omitempty"`
	Hurst   float64 `json:"hurst,omitempty"`
	OnMean  float64 `json:"on_mean,omitempty"`
	OffMean float64 `json:"off_mean,omitempty"`
	PeakGap float64 `json:"peak_gap,omitempty"`
}

// mmpp compiles the MMPP view of the axis.
func (a *Arrival) mmpp() (*stochastic.MMPP, error) {
	if a.Sources != 0 || a.Hurst != 0 || a.OnMean != 0 || a.OffMean != 0 || a.PeakGap != 0 {
		return nil, fmt.Errorf("sweep: arrival %q does not take self-similar fields", a.Process)
	}
	m := &stochastic.MMPP{StateGaps: a.Gaps, StateDwells: a.Dwells}
	switch a.DwellDist {
	case "", DwellExp:
	case DwellDet:
		m.Deterministic = true
	default:
		return nil, fmt.Errorf("sweep: unknown dwell_dist %q (want %q or %q)",
			a.DwellDist, DwellExp, DwellDet)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// selfSimilar compiles the self-similar view of the axis.
func (a *Arrival) selfSimilar() (*stochastic.SelfSimilar, error) {
	if len(a.Gaps) != 0 || len(a.Dwells) != 0 || a.DwellDist != "" {
		return nil, fmt.Errorf("sweep: arrival %q does not take MMPP fields", a.Process)
	}
	s := &stochastic.SelfSimilar{
		Sources: a.Sources,
		Hurst:   a.Hurst,
		OnMean:  a.OnMean,
		OffMean: a.OffMean,
		PeakGap: a.PeakGap,
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// label is the workload-label fragment of the axis, stable across runs.
func (a *Arrival) label() string {
	switch a.Process {
	case ProcessMMPP:
		s := fmt.Sprintf("mmpp%d", len(a.Gaps))
		if a.DwellDist == DwellDet {
			s += "det"
		}
		return s
	case ProcessSelfSimilar:
		return fmt.Sprintf("selfsimH%gx%d", a.Hurst, a.Sources)
	}
	return a.Process
}

// StochasticConfig compiles the workload into a generator configuration
// with the given seed. Target ranges (or the spatial pattern's destination
// table) are the runner's concern and stay unset here.
func (w Workload) StochasticConfig(seed int64) (stochastic.Config, error) {
	cfg := stochastic.Config{
		MeanGap: w.MeanGap,
		Count:   w.Count,
		Seed:    seed,
	}
	if w.Arrival != nil {
		switch w.Arrival.Process {
		case ProcessMMPP:
			m, err := w.Arrival.mmpp()
			if err != nil {
				return stochastic.Config{}, err
			}
			cfg.MMPP = m
		case ProcessSelfSimilar:
			s, err := w.Arrival.selfSimilar()
			if err != nil {
				return stochastic.Config{}, err
			}
			cfg.SelfSimilar = s
		default:
			return stochastic.Config{}, fmt.Errorf("sweep: unknown arrival process %q (want %q or %q)",
				w.Arrival.Process, ProcessMMPP, ProcessSelfSimilar)
		}
	} else {
		var err error
		if cfg.Dist, err = w.dist(); err != nil {
			return stochastic.Config{}, err
		}
	}
	var err error
	if cfg.Spatial, err = w.spatial(); err != nil {
		return stochastic.Config{}, err
	}
	return cfg, nil
}
