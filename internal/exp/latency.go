package exp

import (
	"fmt"
	"math"

	"noctg/internal/core"
	"noctg/internal/platform"
	"noctg/internal/prog"
	"noctg/internal/sim"
)

// LatencyProfile summarises per-transaction read latencies (response cycle
// minus acceptance cycle) observed at the master OCP interfaces — a
// finer-grained fidelity metric than the makespan: the TG platform should
// reproduce not just the run length but the distribution of interconnect
// service times the traffic experiences.
type LatencyProfile struct {
	Reads uint64
	Mean  float64
	Max   uint64
	Hist  *sim.Histogram
}

// portProfile merges the read-latency histograms the platform's port
// monitors metered.
func portProfile(sys *platform.System) *LatencyProfile {
	p := &LatencyProfile{Hist: sim.NewLatencyHistogram()}
	for _, mon := range sys.Monitors {
		p.Hist.Merge(mon.LatencyHist())
	}
	p.Reads = p.Hist.Count()
	p.Mean = p.Hist.Mean()
	p.Max = p.Hist.Max()
	return p
}

// LatencyComparison runs the spec on cycle-true cores and on TGs, both with
// port monitors, and returns the two read-latency profiles.
func LatencyComparison(spec *prog.Spec, opt Options) (arm, tg *LatencyProfile, err error) {
	ref, err := RunReference(spec, opt, true)
	if err != nil {
		return nil, nil, err
	}
	progs, _, _, err := TranslateAll(spec, ref.Traces,
		core.DefaultTranslateConfig(PollRangesFor(spec)))
	if err != nil {
		return nil, nil, err
	}
	cfg := opt.Platform
	cfg.Cores = spec.Cores
	cfg.Trace = true // meter the TG ports too
	sys, err := platform.BuildTG(cfg, progs)
	if err != nil {
		return nil, nil, err
	}
	if _, err := sys.Run(spec.MaxCycles); err != nil {
		return nil, nil, err
	}
	return portProfile(ref.Sys), portProfile(sys), nil
}

// MeanErrorPct returns the relative difference of the two profile means.
func MeanErrorPct(arm, tg *LatencyProfile) float64 {
	if arm.Mean == 0 {
		return 0
	}
	return 100 * math.Abs(tg.Mean-arm.Mean) / arm.Mean
}

// FormatLatency renders a profile for reports.
func (p *LatencyProfile) String() string {
	return fmt.Sprintf("%d reads, mean %.2f cycles, max %d", p.Reads, p.Mean, p.Max)
}
