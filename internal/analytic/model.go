package analytic

import "math"

// Estimate is the closed-form prediction for one point: the zero-load
// operating corner, the saturation knee, and structural error bars.
type Estimate struct {
	// ZeroLoadLatency is the contention-free mean read latency in cycles
	// (assert to response), destination-averaged.
	ZeroLoadLatency float64 `json:"zero_load_latency_cycles"`
	// WriteAccept is the contention-free write acceptance latency.
	WriteAccept float64 `json:"write_accept_cycles"`
	// Saturates reports whether any resource can saturate: with few
	// masters and a fast fabric the closed loop self-limits and no knee
	// exists at any gap.
	Saturates bool `json:"saturates"`
	// KneeGap is the mean drawn gap at which the bottleneck reaches full
	// utilization (only meaningful when Saturates). Gaps below it run the
	// fabric saturated.
	KneeGap float64 `json:"knee_gap,omitempty"`
	// KneeOfferedTPK is the offered load at the knee in transactions per
	// 1000 cycles across all masters: Masters·1000/(KneeGap+1).
	KneeOfferedTPK float64 `json:"knee_offered_tpk,omitempty"`
	// SatThroughputTPK is the saturated transaction throughput ceiling:
	// Masters·1000/BottleneckDemand.
	SatThroughputTPK float64 `json:"sat_throughput_tpk"`
	// Bottleneck names the limiting resource; BottleneckDemand is its
	// per-transaction occupancy in cycles summed across masters.
	Bottleneck       string  `json:"bottleneck"`
	BottleneckDemand float64 `json:"bottleneck_demand_cycles"`
	// GapSCV echoes the burstiness input the waiting term used.
	GapSCV float64 `json:"gap_scv"`
	// KneeRelErr / LatencyRelErr are structural error bars: relative
	// uncertainty on the knee position (in offered load) and on
	// below-knee mean latency. They widen with burstiness and with how
	// asymmetric the destination distribution is, the two effects the
	// independence approximation handles worst.
	KneeRelErr    float64 `json:"knee_rel_err"`
	LatencyRelErr float64 `json:"latency_rel_err"`
	// ValidMinGap bounds the validity range: below this mean gap the
	// fabric is past the knee and LatencyAt returns the closed-loop
	// asymptote rather than a steady-state mean (open-loop latency would
	// be unbounded there).
	ValidMinGap float64 `json:"valid_min_gap"`
}

// Estimate computes the point prediction. It allocates nothing.
func (e *Estimator) Estimate() Estimate {
	bott := e.resources[e.bottleneck]
	n := float64(e.spec.Traffic.Masters)
	est := Estimate{
		ZeroLoadLatency:  e.r0Read,
		WriteAccept:      e.a0Write,
		SatThroughputTPK: 1000 * n / bott.demand,
		Bottleneck:       bott.name,
		BottleneckDemand: bott.demand,
		GapSCV:           e.spec.Traffic.GapSCV,
	}
	// Closed-loop period at gap g is g+1+T0 plus queueing; the bottleneck
	// saturates where demand-per-period hits 1: g* = S - T0 - 1.
	knee := bott.demand - e.t0 - 1
	if knee > 0 {
		est.Saturates = true
		est.KneeGap = knee
		est.KneeOfferedTPK = 1000 * n / (knee + 1)
		est.ValidMinGap = knee
	}
	// Error bars: base model error, plus burstiness beyond exponential
	// (the renewal waiting term underestimates correlated sources), plus
	// destination skew (independence approximation is weakest when one
	// resource takes most of the load).
	burst := math.Abs(e.spec.Traffic.GapSCV-1) / 8
	if burst > 0.5 {
		burst = 0.5
	}
	skew := e.destSkew() * 0.1
	est.KneeRelErr = 0.10 + burst + skew
	est.LatencyRelErr = 0.12 + burst/2 + skew
	return est
}

// destSkew measures destination-distribution asymmetry in [0, 1]: 0 for a
// balanced pattern, →1 when a single resource carries all load.
func (e *Estimator) destSkew() float64 {
	var sum, max float64
	for _, r := range e.resources {
		sum += r.demand
		if r.demand > max {
			max = r.demand
		}
	}
	if sum == 0 || len(e.resources) < 2 {
		return 0
	}
	mean := sum / float64(len(e.resources))
	s := (max - mean) / sum * float64(len(e.resources)) / float64(len(e.resources)-1)
	if s > 1 {
		s = 1
	}
	return s
}

// UtilizationAt returns the predicted bottleneck utilization at the given
// mean drawn gap, clamped to 1.
func (e *Estimator) UtilizationAt(gap float64) float64 {
	u := e.resources[e.bottleneck].demand / (gap + 1 + e.t0)
	if u > 1 {
		return 1
	}
	return u
}

// DemandRatioAt is UtilizationAt without the cap: values above 1 measure
// how deep past saturation a point sits, which the pre-pass uses to
// decide whether the model brackets a point confidently.
func (e *Estimator) DemandRatioAt(gap float64) float64 {
	return e.resources[e.bottleneck].demand / (gap + 1 + e.t0)
}

// ThroughputAt returns the predicted transaction throughput in
// transactions per 1000 cycles across all masters at the given mean gap.
func (e *Estimator) ThroughputAt(gap float64) float64 {
	_, x := e.solve(gap)
	return 1000 * x * float64(e.spec.Traffic.Masters)
}

// LatencyAt returns the predicted mean read latency in cycles at the
// given mean drawn gap. Past the knee it converges to the closed-loop
// asymptote N·D - Z (population-limited, not unbounded).
func (e *Estimator) LatencyAt(gap float64) float64 {
	lat, _ := e.solve(gap)
	return lat
}

// solve runs the Schweitzer approximate-MVA fixed point on the one-server
// reduction: the bottleneck is the queueing station (per-customer demand
// D), everything else — gap, handshake, and the contention-free part of
// the transaction latency — is think time Z. Throughput comes from the
// uncorrected fixed point, which is exactly capacity-calibrated (X -> 1/D
// as Z -> 0); the burstiness factor cb then scales only the latency-side
// waiting time, clamped to the closed-loop ceiling N·D - Z - D that a
// population of N customers can never exceed. Returns (mean read latency,
// per-master throughput). Zero allocations.
func (e *Estimator) solve(gap float64) (latency, x float64) {
	n := float64(e.spec.Traffic.Masters)
	d := e.resources[e.bottleneck].demand / n
	z := gap + 1 + e.t0 - d
	if z < 0 {
		z = 0
	}
	if n == 1 {
		// One customer never queues behind itself.
		return e.r0Read, 1 / (gap + 1 + e.t0)
	}
	// Schweitzer: arriving customer sees Q·(N-1)/N customers at the
	// station. Damped iteration; the map is a contraction for D, Z > 0.
	q := d / (d + z) * n // warm start near the balanced fixed point
	var rst float64
	for i := 0; i < 64; i++ {
		rst = d * (1 + q*(n-1)/n)
		xi := n / (z + rst)
		qn := xi * rst
		if math.Abs(qn-q) < 1e-9 {
			q = qn
			break
		}
		q = 0.5*q + 0.5*qn
	}
	rst = d * (1 + q*(n-1)/n)
	x = 1 / (z + rst) // per-master
	wait := e.cb * (rst - d)
	if ceil := n*d - z - d; wait > ceil {
		if ceil < 0 {
			ceil = 0
		}
		wait = ceil
	}
	// The queueing excess over the contention-free service lands on the
	// read path (reads block; writes are posted).
	return e.r0Read + wait, x
}
