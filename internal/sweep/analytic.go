package sweep

import (
	"fmt"
	"math"

	"noctg/internal/analytic"
	"noctg/internal/noc"
	"noctg/internal/platform"
	"noctg/internal/stochastic"
)

// This file bridges sweep points to the closed-form estimator: it
// reproduces the platform's floorplan (master i at node i, private memory
// d at node Nodes-1-d, shared memory at Nodes-1-Cores) and the stochastic
// layer's exact traffic descriptors (destination distribution, mean gap,
// gap burstiness) so a prediction describes precisely the configuration a
// simulation of the same point would run.

// AnalyticSpec converts a stochastic workload/fabric pair into the
// estimator's specification. It fails on TG workloads (their load is a
// recorded trace, not a stochastic process) and on fabrics the platform
// itself would reject.
func AnalyticSpec(w Workload, f Fabric) (analytic.Spec, error) {
	if w.Kind != KindStochastic {
		return analytic.Spec{}, fmt.Errorf("sweep: analytic estimation needs a stochastic workload, got %q", w.Kind)
	}
	if err := w.validate(curveOpenCount, nil); err != nil {
		return analytic.Spec{}, err
	}
	if err := f.validate(); err != nil {
		return analytic.Spec{}, err
	}
	scfg, err := w.StochasticConfig(1)
	if err != nil {
		return analytic.Spec{}, err
	}
	rcfg := scfg.Resolved()
	traffic := analytic.Traffic{
		Masters:      w.Cores,
		ReadFraction: rcfg.ReadFraction,
		Burst:        1, // generators issue single-beat transactions
		GapSCV:       rcfg.GapSCV(),
	}
	if g := rcfg.MeanGapCycles(); !math.IsInf(g, 0) {
		traffic.MeanGap = g
	}

	spec := analytic.Spec{Traffic: traffic}
	if f.Interconnect == FabricAMBA {
		spec.Fabric = analytic.Fabric{Kind: analytic.KindAMBA, WaitStates: waitStates(f)}
		return spec, nil
	}

	// Resolve the grid exactly as the platform does.
	ncfg, err := platform.AutoMesh(w.Cores, noc.Config{Width: f.MeshWidth, Height: f.MeshHeight, Topology: f.topology()})
	if err != nil {
		return analytic.Spec{}, err
	}
	nodes := ncfg.Width * ncfg.Height
	spec.Fabric = analytic.Fabric{
		Kind:       analytic.KindXPipes,
		Torus:      ncfg.Topology == noc.Torus,
		Width:      ncfg.Width,
		Height:     ncfg.Height,
		WaitStates: waitStates(f),
	}

	spec.Traffic.MasterNode = make([]int, w.Cores)
	spec.Traffic.DestNodes = make([][]int, w.Cores)
	spec.Traffic.DestProbs = make([][]float64, w.Cores)
	for i := 0; i < w.Cores; i++ {
		spec.Traffic.MasterNode[i] = i
	}
	if w.Pattern == "" {
		// Legacy shared-memory target: every master hits the shared slave.
		shared := nodes - 1 - w.Cores
		for i := 0; i < w.Cores; i++ {
			spec.Traffic.DestNodes[i] = []int{shared}
			spec.Traffic.DestProbs[i] = []float64{1}
		}
		return spec, nil
	}
	// Pattern workloads: logical node d's traffic lands in core d's
	// private memory, which sits at fabric node Nodes-1-d.
	sampler, err := stochastic.NewSampler(*rcfg.Spatial)
	if err != nil {
		return analytic.Spec{}, err
	}
	var probs []float64
	for i := 0; i < w.Cores; i++ {
		probs = sampler.DestProbs(i, probs)
		var dn []int
		var dp []float64
		for d, p := range probs {
			if p > 0 {
				dn = append(dn, nodes-1-d)
				dp = append(dp, p)
			}
		}
		spec.Traffic.DestNodes[i] = dn
		spec.Traffic.DestProbs[i] = dp
	}
	return spec, nil
}

// PredictedKneeGap predicts the mean gap at which the curve-level
// saturation detector first fires. Two mechanisms compete, and the
// detector flags whichever happens at the lighter load (larger gap):
//
//   - resource saturation: the model's knee gap, where the bottleneck
//     reaches full utilization and latency departs its plateau;
//   - the marginal-throughput knee: closed-loop masters stop tracking
//     offered load once the transaction time dominates the period,
//     at roughly (gap+1) = f/(1-f) · (period - gap - 1) with f the
//     detector's marginal-gain fraction — this fires even on fabrics the
//     population can never saturate.
func PredictedKneeGap(est *analytic.Estimator) float64 {
	e := est.Estimate()
	knee := 0.0
	if e.Saturates {
		knee = e.KneeGap
	}
	c := satMarginalFrac / (1 - satMarginalFrac)
	n := float64(est.Spec().Traffic.Masters)
	g := knee
	for i := 0; i < 16; i++ {
		// period - (gap+1) is the latency part of the closed-loop period
		// (service plus queueing) at this load.
		t := 1000*n/est.ThroughputAt(g) - (g + 1)
		ng := c*t - 1
		if ng < 0 {
			ng = 0
		}
		g = 0.5*g + 0.5*ng
	}
	return math.Max(knee, g)
}

// NewEstimator compiles the estimator for a stochastic workload/fabric
// pair in one step.
func NewEstimator(w Workload, f Fabric) (*analytic.Estimator, error) {
	spec, err := AnalyticSpec(w, f)
	if err != nil {
		return nil, err
	}
	return analytic.New(spec)
}

// PredictSaturationIndex runs the curve-level saturation detector on the
// model's own predictions over a gap ladder, returning the index of the
// first level the detector would flag (-1 if none). This is the
// operational knee — the same latency-blowup/throughput-marginal rules,
// quantized to the same ladder, that a simulated curve is judged by — so
// it is the right seed for adaptive traversal and the right quantity to
// cross-validate against a simulated curve's detection. Gaps must be in
// descending order (ascending load), as resolved curve axes are.
func PredictSaturationIndex(est *analytic.Estimator, gaps []float64) int {
	cores := float64(est.Spec().Traffic.Masters)
	pts := make([]CurvePoint, len(gaps))
	for i, g := range gaps {
		pts[i] = CurvePoint{
			MeanGap:       g,
			OfferedTPK:    cores * 1000 / (g + 1),
			ThroughputTPK: est.ThroughputAt(g),
			LatencyMean:   est.LatencyAt(g),
		}
	}
	sat := detectSaturation(pts)
	if sat == nil {
		return -1
	}
	return sat.Index
}

// AnalyticReport predicts every distinct stochastic workload×fabric pair
// in the point list, in sweep order — the -analytic report artifact.
// Configurations the estimator rejects are recorded with Err set, never
// silently dropped; TG points (trace replay, no stochastic process to
// predict) are outside the report's scope.
func AnalyticReport(points []Point) analytic.Report {
	var rep analytic.Report
	seen := make(map[string]bool)
	for _, p := range points {
		if p.Workload.Kind != KindStochastic {
			continue
		}
		label := p.Workload.Label() + " @ " + p.Fabric.Label()
		if seen[label] {
			continue
		}
		seen[label] = true
		entry := analytic.Entry{Label: label}
		if est, err := NewEstimator(p.Workload, p.Fabric); err != nil {
			entry.Err = err.Error()
		} else {
			entry.Spec = est.Spec()
			entry.Estimate = est.Estimate()
		}
		rep.Entries = append(rep.Entries, entry)
	}
	return rep
}

// waitStates resolves the fabric's slave wait states with the platform
// default.
func waitStates(f Fabric) float64 {
	if f.MemWaitStates == 0 {
		return 1
	}
	return float64(f.MemWaitStates)
}
