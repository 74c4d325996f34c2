package sweep

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"noctg/internal/analytic"
	"noctg/internal/guard"
)

// This file implements the canonical NoC load–latency evaluation: sweep
// the injection load of one workload/fabric pair from light to heavy,
// measure each level with the phased warmup/epoch methodology, and report
// the saturation point — the load at which latency departs from its
// zero-load plateau and throughput stops scaling.

// DefaultCurveGaps is the stock injection-load axis: mean
// inter-transaction gaps from light load (gap 48) to far past saturation
// (gap 0.5), geometrically spaced so the knee is well resolved.
var DefaultCurveGaps = []float64{48, 32, 24, 16, 12, 8, 6, 4, 3, 2, 1.5, 1, 0.5}

// curveOpenCount makes curve generators effectively open-ended: the load
// level, not the transaction budget, ends the measurement.
const curveOpenCount = 1 << 30

// Saturation detection thresholds. A load level is saturated when any of:
//
//   - marginal-throughput knee: raising the offered load yields less than
//     satMarginalFrac of the proportional throughput gain (the masters are
//     closed-loop — one outstanding transaction each — so past the knee
//     the accepted-throughput curve flattens onto the service-capacity
//     asymptote instead of collapsing);
//   - latency blow-up: the request-latency mean reaches satLatencyFactor ×
//     the lightest level's (source queueing dominating service time);
//   - throughput regression: accepted throughput falls as offered load
//     rises (post-knee interference);
//   - the level's own epoch trend showed unbounded latency growth.
const (
	satLatencyFactor = 3.0
	satThroughputTol = 0.02
	satMarginalFrac  = 0.15
)

// Curve modes.
const (
	// CurveModeUniform simulates every level of the load axis (the
	// default; the empty string means the same).
	CurveModeUniform = "uniform"
	// CurveModeAdaptive simulates a subset of the axis: the lightest
	// level (the latency baseline), a cluster seeded at the analytic
	// knee prediction, and the heaviest level, then refines the knee
	// bracket by golden-section interval splitting until the first
	// saturated level and its nearest lighter simulated level are
	// adjacent on the axis — so the detected knee compares the same
	// neighbouring levels uniform mode would. Skipped levels are
	// recorded as estimated points carrying the model's predictions,
	// never dropped.
	CurveModeAdaptive = "adaptive"
)

// CurveSpec names one load–latency curve: a stochastic workload whose
// MeanGap axis is swept over Gaps, one fabric, and the phased measurement
// configuration applied at every load level.
type CurveSpec struct {
	Name string `json:"name"`
	// Workload is the traffic template; MeanGap and Count are overridden
	// per load level (stochastic workloads only — TG replay has a fixed
	// recorded load).
	Workload Workload `json:"workload"`
	Fabric   Fabric   `json:"fabric"`
	// ClockPeriodNS defaults to the paper's 5 ns; Seed to 1.
	ClockPeriodNS uint64 `json:"clock_period_ns,omitempty"`
	Seed          int64  `json:"seed,omitempty"`
	// Gaps is the load axis (mean inter-transaction gap in cycles); empty
	// selects DefaultCurveGaps. Levels run in descending-gap (ascending
	// load) order regardless of input order.
	Gaps []float64 `json:"gaps,omitempty"`
	// Measure is the per-level phased methodology; EpochCycles must be set
	// (open-loop levels never complete, so epochs are the only windows).
	Measure Measure `json:"measure"`
	// Mode selects CurveModeUniform (default) or CurveModeAdaptive. The
	// mode is result-determining: adaptive curves carry estimated points.
	Mode string `json:"mode,omitempty"`
}

// withDefaults resolves the optional axes.
func (cs CurveSpec) withDefaults() CurveSpec {
	if cs.ClockPeriodNS == 0 {
		cs.ClockPeriodNS = 5
	}
	if cs.Seed == 0 {
		cs.Seed = 1
	}
	if len(cs.Gaps) == 0 {
		cs.Gaps = DefaultCurveGaps
	}
	return cs
}

// Validate checks the curve specification.
func (cs CurveSpec) Validate() error {
	if cs.Name == "" {
		return fmt.Errorf("sweep: curve needs a name")
	}
	d := cs.withDefaults()
	if d.Workload.Kind != KindStochastic {
		return fmt.Errorf("sweep: curve %q needs a stochastic workload (TG replay has a fixed load)", cs.Name)
	}
	// Every level replaces the template's count with curveOpenCount.
	if err := d.Workload.validate(curveOpenCount, nil); err != nil {
		return fmt.Errorf("sweep: curve %q: %w", cs.Name, err)
	}
	if err := d.Fabric.validate(); err != nil {
		return fmt.Errorf("sweep: curve %q: %w", cs.Name, err)
	}
	for i, g := range d.Gaps {
		if err := ValidateGap(g); err != nil {
			return fmt.Errorf("sweep: curve %q: gaps[%d] %w", cs.Name, i, err)
		}
	}
	if err := d.Measure.Validate(); err != nil {
		return fmt.Errorf("sweep: curve %q: %w", cs.Name, err)
	}
	if d.Measure.EpochCycles == 0 {
		return fmt.Errorf("sweep: curve %q: measure.epoch_cycles must be set (open-loop levels never complete)", cs.Name)
	}
	switch d.Mode {
	case "", CurveModeUniform:
	case CurveModeAdaptive:
		// The adaptive planner needs a compilable estimator; surface the
		// failure at validation, not mid-sweep.
		if _, err := NewEstimator(d.Workload, d.Fabric); err != nil {
			return fmt.Errorf("sweep: curve %q: %w", cs.Name, err)
		}
	default:
		return fmt.Errorf("sweep: curve %q: unknown mode %q", cs.Name, d.Mode)
	}
	return nil
}

// CurvePoint is one measured load level.
type CurvePoint struct {
	// MeanGap is the level's mean inter-transaction gap; OfferedTPK the
	// corresponding offered load in transactions per thousand cycles
	// (cores × 1000/(gap+1), the generators' scheduling floor).
	MeanGap    float64 `json:"mean_gap"`
	OfferedTPK float64 `json:"offered_tpk"`
	// ThroughputTPK is the measured steady-state throughput; LatencyMean/
	// LatencyMax the measured assert-to-response request latency (service
	// plus source queueing — the metric that explodes at saturation).
	ThroughputTPK float64 `json:"throughput_tpk"`
	LatencyMean   float64 `json:"latency_mean_cycles"`
	LatencyMax    uint64  `json:"latency_max_cycles"`
	Reads         uint64  `json:"reads"`
	// Epochs is the number of measurement epochs the level ran;
	// CIHalfWidthRel and Converged report the adaptive-stopping outcome.
	Epochs         int     `json:"epochs"`
	CIHalfWidthRel float64 `json:"ci_half_width_rel"`
	Converged      bool    `json:"converged"`
	// Saturated marks the level as past the saturation knee (set by the
	// curve-level detector; see Curve.Saturation).
	Saturated bool   `json:"saturated"`
	Err       string `json:"err,omitempty"`
	// Estimated marks a level the adaptive planner skipped: its latency
	// and throughput are the analytic model's predictions, not
	// measurements (Reads/Epochs stay zero). Uniform curves never set it.
	Estimated bool `json:"estimated,omitempty"`
	// Violation carries the structured guard diagnostic — watchdog
	// violation or recovered worker panic — with the level's identity
	// (curve name, gap) prefixed onto its message, so a failed curve level
	// is as debuggable as a failed grid point. Omitted on clean levels, so
	// fault-free artifacts are unchanged.
	Violation *guard.Violation `json:"violation,omitempty"`
}

// SaturationPoint names the first saturated load level of a curve.
type SaturationPoint struct {
	// Index is the level's position in Points; MeanGap its gap.
	Index   int     `json:"index"`
	MeanGap float64 `json:"mean_gap"`
	// ThroughputTPK is the curve's saturation throughput: the maximum
	// measured throughput across all levels (the post-knee plateau).
	ThroughputTPK float64 `json:"throughput_tpk"`
}

// Curve is one complete load–latency curve.
type Curve struct {
	Name          string       `json:"name"`
	Workload      string       `json:"workload"`
	Fabric        string       `json:"fabric"`
	ClockPeriodNS uint64       `json:"clock_period_ns"`
	Seed          int64        `json:"seed"`
	Points        []CurvePoint `json:"points"`
	// Saturation is the detected saturation point (nil when no level
	// saturated — extend the load axis). For adaptive curves it always
	// names a simulated level.
	Saturation *SaturationPoint `json:"saturation,omitempty"`
	// Mode is CurveModeAdaptive for adaptively-sampled curves (empty for
	// uniform, keeping legacy artifacts byte-identical);
	// SimulatedLevels/EstimatedLevels log the adaptive planner's savings.
	Mode            string `json:"mode,omitempty"`
	SimulatedLevels int    `json:"simulated_levels,omitempty"`
	EstimatedLevels int    `json:"estimated_levels,omitempty"`
	// Analytic carries the model prediction that seeded the adaptive
	// planner.
	Analytic *analytic.Estimate `json:"analytic,omitempty"`
}

// RunCurves measures a set of curves, parallelising every (curve, load
// level) pair over one worker pool. Results are deterministic and ordered
// by input spec regardless of worker count: adaptive curves advance in
// lockstep rounds, so every round's level list — and therefore every
// simulated level — is a pure function of earlier results, never of
// worker scheduling.
func (r Runner) RunCurves(specs []CurveSpec) ([]Curve, error) {
	curves, _, err := r.runCurves(specs, nil)
	return curves, err
}

// RunCurvesJournaled is RunCurves under RunJournaled's write-ahead journal:
// every axis level of every curve is a point of the campaign, so a resume
// replays the same rounds, restores the journaled levels and simulates
// only the missing ones, into byte-identical curves.
func (r Runner) RunCurvesJournaled(specs []CurveSpec, jc JournalConfig) ([]Curve, JournalStatus, error) {
	return r.runCurves(specs, &jc)
}

// runCurves resolves the specs into their level points and drives the
// lockstep rounds through the point executor, journaled when jc is set:
// each round executes every curve's next levels as one point list, until
// no curve asks for more.
func (r Runner) runCurves(specs []CurveSpec, jc *JournalConfig) (curves []Curve, status JournalStatus, err error) {
	states := make([]*curveState, len(specs))
	levels := 0 // every axis level of every curve
	for i, cs := range specs {
		if err := cs.Validate(); err != nil {
			return nil, status, fmt.Errorf("curve %d: %w", i, err)
		}
		cs = cs.withDefaults()
		// Ascending load = descending gap; stable ordering makes the
		// saturation scan well-defined.
		cs.Gaps = append([]float64(nil), cs.Gaps...)
		sort.Sort(sort.Reverse(sort.Float64Slice(cs.Gaps)))
		st := &curveState{cs: cs, first: levels, sim: map[int]CurvePoint{}}
		levels += len(cs.Gaps)
		if cs.Mode == CurveModeAdaptive {
			if st.est, err = NewEstimator(cs.Workload, cs.Fabric); err != nil {
				return nil, status, fmt.Errorf("curve %q: %w", cs.Name, err)
			}
		}
		states[i] = st
	}
	// CurveSpec.Validate has checked what the levels share with their spec,
	// so only the runner's own knobs are left to check.
	if err := r.validatePoints(nil); err != nil {
		return nil, status, err
	}
	var j *campaignJournal
	if jc != nil {
		all := make([]Point, 0, levels)
		for _, st := range states {
			for gi := range st.cs.Gaps {
				all = append(all, st.level(gi))
			}
		}
		if j, err = openJournal(*jc, all); err != nil {
			return nil, status, err
		}
		defer func() { status, err = j.status, j.close(err) }()
	}
	type level struct{ spec, gap int }
	cache := &programCache{}
	for {
		var next []level
		for si, st := range states {
			for _, gi := range st.nextLevels() {
				next = append(next, level{spec: si, gap: gi})
			}
		}
		if len(next) == 0 {
			break
		}
		round := make([]Point, len(next))
		for k, l := range next {
			round[k] = states[l.spec].level(l.gap)
		}
		results, err := r.execPoints(cache, round, j)
		if err != nil {
			return nil, status, err
		}
		for k, l := range next {
			st := states[l.spec]
			st.sim[l.gap] = curvePoint(st.cs, st.cs.Gaps[l.gap], results[k])
		}
	}
	curves = make([]Curve, len(states))
	for si, st := range states {
		curves[si] = st.assemble()
	}
	return curves, status, nil
}

// curveState tracks one curve's progress through the lockstep rounds.
type curveState struct {
	cs     CurveSpec
	first  int                 // flattened index of the curve's first level
	est    *analytic.Estimator // adaptive only
	sim    map[int]CurvePoint  // simulated levels by axis index
	seeded bool
}

// level is axis level gi as an ordinary sweep point: the template workload
// at the level's gap with effectively unbounded transactions, measured in
// phased epochs. Its ID is its flattened (curve, gap) index, so every level
// of a campaign has its own PointKey.
func (st *curveState) level(gi int) Point {
	cs := st.cs
	w, m := cs.Workload, cs.Measure
	w.MeanGap, w.Count = cs.Gaps[gi], curveOpenCount
	m.DrainCycles = 0 // open-loop levels have nothing to drain into
	return Point{ID: st.first + gi, Workload: w, Fabric: cs.Fabric,
		ClockPeriodNS: cs.ClockPeriodNS, Seed: cs.Seed, Measure: &m}
}

// nextLevels returns the axis indices to simulate this round (empty when
// the curve is complete). Uniform curves run the whole axis in round
// zero; adaptive curves seed knee-centred levels, then refine.
func (st *curveState) nextLevels() []int {
	n := len(st.cs.Gaps)
	if !st.seeded {
		st.seeded = true
		k := -2 // a uniform curve has no knee to seed around
		if st.est != nil {
			k = st.kneeIndex()
		}
		var idx []int
		for i := 0; i < n; i++ {
			if st.est == nil || i == 0 || i == n-1 || (i >= k-1 && i <= k+1) {
				idx = append(idx, i)
			}
		}
		return idx
	}
	if st.est == nil || len(st.sim) == n {
		return nil
	}
	s, p := st.satBracket()
	if s < 0 || p < 0 {
		return nil
	}
	if p == s-1 {
		// The bracket is tight, but the detection at s is only trustworthy
		// if the adjacent step into s-1 was also inspected: the marginal
		// criterion compares neighbouring levels, and a subsequence that
		// skips s-2 could place the first trigger one step late. Confirm
		// with s-2 before declaring the knee.
		if s-1 > 0 {
			if _, ok := st.sim[s-2]; !ok {
				return []int{s - 2}
			}
		}
		return nil
	}
	// Golden-section interior split of the (p, s) bracket, snapped to the
	// nearest unsimulated axis index.
	m := s - int(math.Round(0.618*float64(s-p)))
	if m <= p {
		m = p + 1
	}
	if m >= s {
		m = s - 1
	}
	for d := 0; d < n; d++ {
		for _, c := range []int{m - d, m + d} {
			if c > p && c < s {
				if _, ok := st.sim[c]; !ok {
					return []int{c}
				}
			}
		}
	}
	return nil
}

// kneeIndex seeds the adaptive traversal: the axis index where the
// saturation detector, run on the model's own predicted curve over this
// ladder, first fires. That mirrors the operational definition a uniform
// run is judged by, ladder quantization included. When the model's curve
// never trips the detector, fall back to the continuous knee prediction
// snapped to the nearest gap (ties toward lighter load, where simulation
// is cheaper).
func (st *curveState) kneeIndex() int {
	if k := PredictSaturationIndex(st.est, st.cs.Gaps); k >= 0 {
		return k
	}
	knee := PredictedKneeGap(st.est)
	best, bestDist := len(st.cs.Gaps)-1, math.Inf(1)
	for i, g := range st.cs.Gaps {
		if d := math.Abs(g - knee); d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

// simSeq returns the simulated levels in axis order, plus their axis
// indices.
func (st *curveState) simSeq() ([]CurvePoint, []int) {
	idx := make([]int, 0, len(st.sim))
	for i := range st.sim {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	seq := make([]CurvePoint, len(idx))
	for k, i := range idx {
		seq[k] = st.sim[i]
	}
	return seq, idx
}

// satBracket runs the saturation detector on the simulated subsequence
// and returns (axis index of the first saturated level, axis index of
// the nearest lighter error-free simulated level). s = -1 when nothing
// saturated; p = -1 when no lighter level exists.
func (st *curveState) satBracket() (s, p int) {
	seq, idx := st.simSeq()
	sat := detectSaturation(seq)
	if sat == nil {
		return -1, -1
	}
	s = idx[sat.Index]
	p = -1
	for k := sat.Index - 1; k >= 0; k-- {
		if seq[k].Err == "" {
			p = idx[k]
			break
		}
	}
	return s, p
}

// assemble builds the final curve: uniform curves report the simulated
// axis as-is; adaptive curves interleave measured and estimated levels
// and re-run the detector on the measured subsequence only.
func (st *curveState) assemble() Curve {
	cs := st.cs
	c := Curve{
		Name:          cs.Name,
		Workload:      cs.Workload.Label(),
		Fabric:        cs.Fabric.Label(),
		ClockPeriodNS: cs.ClockPeriodNS,
		Seed:          cs.Seed,
		Points:        make([]CurvePoint, len(cs.Gaps)),
	}
	seq, idx := st.simSeq()
	sat := detectSaturation(seq)
	satAxis := -1
	if sat != nil {
		satAxis = idx[sat.Index]
		c.Saturation = &SaturationPoint{Index: satAxis, MeanGap: sat.MeanGap, ThroughputTPK: sat.ThroughputTPK}
	}
	for k, i := range idx {
		c.Points[i] = seq[k]
	}
	if st.est == nil {
		return c // a uniform curve simulated every level
	}
	for i, gap := range cs.Gaps {
		if _, ok := st.sim[i]; !ok {
			c.Points[i] = CurvePoint{
				MeanGap:       gap,
				OfferedTPK:    float64(cs.Workload.Cores) * 1000 / (gap + 1),
				ThroughputTPK: st.est.ThroughputAt(gap),
				LatencyMean:   st.est.LatencyAt(gap),
				Estimated:     true,
				Saturated:     satAxis >= 0 && i >= satAxis,
			}
		}
	}
	c.Mode = CurveModeAdaptive
	c.SimulatedLevels = len(idx)
	c.EstimatedLevels = len(cs.Gaps) - len(idx)
	e := st.est.Estimate()
	c.Analytic = &e
	return c
}

// curvePoint projects a level's Result onto its curve row. A failing
// level keeps its full violation context — a worker panic's recovery
// names the curve and gap, not just a generic failed point.
func curvePoint(cs CurveSpec, gap float64, res Result) CurvePoint {
	cp := CurvePoint{
		MeanGap:    gap,
		OfferedTPK: float64(cs.Workload.Cores) * 1000 / (gap + 1),
		Err:        res.Err,
	}
	if res.Err != "" {
		if res.Violation != nil {
			v := *res.Violation
			v.Msg = fmt.Sprintf("curve %s gap %g: %s", cs.Name, gap, v.Msg)
			cp.Violation = &v
		}
		return cp
	}
	cp.ThroughputTPK = res.ThroughputTPK
	cp.Reads = res.Reads
	if ps := res.Phases; ps != nil {
		cp.LatencyMean = ps.ReqLatency.Mean
		cp.LatencyMax = ps.ReqLatency.Max
		cp.Epochs = len(ps.Epochs)
		cp.CIHalfWidthRel = ps.CIHalfWidthRel
		cp.Converged = ps.Converged
		cp.Saturated = ps.Saturated
	}
	return cp
}

// detectSaturation marks every saturated level and returns the first one.
// Levels are ordered by ascending load; the lightest error-free level
// anchors the zero-load latency baseline, so one failed level degrades
// the baseline instead of discarding the whole curve's detection.
func detectSaturation(points []CurvePoint) *SaturationPoint {
	baseIdx := -1
	for i := range points {
		if points[i].Err == "" {
			baseIdx = i
			break
		}
	}
	if baseIdx < 0 {
		return nil
	}
	base := points[baseIdx].LatencyMean
	var maxTPK float64
	for _, p := range points {
		if p.Err == "" && p.ThroughputTPK > maxTPK {
			maxTPK = p.ThroughputTPK
		}
	}
	var sat *SaturationPoint
	for i := range points {
		p := &points[i]
		if p.Err != "" {
			continue
		}
		if i > baseIdx && base > 0 && p.LatencyMean >= satLatencyFactor*base {
			p.Saturated = true
		}
		if prev := prevOK(points, i); prev != nil {
			if p.ThroughputTPK < prev.ThroughputTPK*(1-satThroughputTol) {
				p.Saturated = true
			}
			// Marginal-throughput knee: compare the relative throughput gain
			// against the relative offered-load increase.
			offGain := p.OfferedTPK/prev.OfferedTPK - 1
			tpkGain := p.ThroughputTPK/prev.ThroughputTPK - 1
			if offGain > 0 && prev.ThroughputTPK > 0 && tpkGain < satMarginalFrac*offGain {
				p.Saturated = true
			}
		}
		if p.Saturated && sat == nil {
			sat = &SaturationPoint{Index: i, MeanGap: p.MeanGap, ThroughputTPK: maxTPK}
		}
	}
	return sat
}

// prevOK returns the closest preceding error-free level, or nil.
func prevOK(points []CurvePoint, i int) *CurvePoint {
	for j := i - 1; j >= 0; j-- {
		if points[j].Err == "" {
			return &points[j]
		}
	}
	return nil
}

// curveCSVHeader is the fixed column set of WriteCurvesCSV.
var curveCSVHeader = []string{
	"curve", "workload", "fabric", "mode", "mean_gap", "offered_tpk", "throughput_tpk",
	"latency_mean_cycles", "latency_max_cycles", "reads", "epochs",
	"ci_half_width_rel", "converged", "saturated", "estimated", "err",
}

// WriteCurvesJSON renders curves as indented JSON with stable ordering.
func WriteCurvesJSON(w io.Writer, curves []Curve) error {
	return writeJSON(w, curves)
}

// WriteCurvesCSV renders every curve point as one CSV row.
func WriteCurvesCSV(w io.Writer, curves []Curve) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(curveCSVHeader); err != nil {
		return err
	}
	for _, c := range curves {
		mode := c.Mode
		if mode == "" {
			mode = CurveModeUniform
		}
		for _, p := range c.Points {
			rec := []string{
				c.Name,
				c.Workload,
				c.Fabric,
				mode,
				strconv.FormatFloat(p.MeanGap, 'g', -1, 64),
				strconv.FormatFloat(p.OfferedTPK, 'g', -1, 64),
				strconv.FormatFloat(p.ThroughputTPK, 'g', -1, 64),
				strconv.FormatFloat(p.LatencyMean, 'g', -1, 64),
				strconv.FormatUint(p.LatencyMax, 10),
				strconv.FormatUint(p.Reads, 10),
				strconv.Itoa(p.Epochs),
				strconv.FormatFloat(p.CIHalfWidthRel, 'g', -1, 64),
				strconv.FormatBool(p.Converged),
				strconv.FormatBool(p.Saturated),
				strconv.FormatBool(p.Estimated),
				p.Err,
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
