// Package scenario is the declarative layer over the sweep runner: a
// Spec names one synthetic NoC evaluation scenario — fabric, topology, a
// logical W×H core grid, a spatial traffic pattern, an injection
// distribution and the load/clock/seed axes — and compiles into sweep grid
// points that run on the existing parallel runner with the same
// deterministic JSON/CSV artifacts.
//
// Scenario files are JSON: either one Spec object or an array of them.
// Unknown fields are rejected; every other value is checked by
// sweep.Grid.Validate on the grid the spec compiles to, so a scenario and
// the equivalent grid file accept the same values within one set of
// bounds. A scenario adds only its name and its load axes (each entry a
// sweep.ValidateGap load, none beside an arrival process). A bad file
// fails at load time, before any platform is built, never with a panic.
//
// The Library holds the classic evaluation set — every spatial pattern
// crossed with the mesh and torus fabrics — as ready-to-run specs.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"noctg/internal/sweep"
)

// Spec is one declarative scenario. The zero values of the optional axes
// take the sweep defaults (one 5 ns clock, seed 1, mean gap 10). A
// scenario says what to simulate; how to execute it (workers, kernel,
// shards, guard, retry) is the sweep.Runner's business, so a file carrying
// such a field fails as an unknown field.
type Spec struct {
	// Name labels the scenario in artifacts and reports.
	Name string `json:"name"`
	// Fabric is "amba" or "xpipes".
	Fabric string `json:"fabric"`
	// Topology selects the ×pipes link structure: "mesh" (default) or
	// "torus". It must be empty for the AMBA bus.
	Topology string `json:"topology,omitempty"`
	// Width and Height give the logical core grid; Width·Height masters
	// are generated and the spatial pattern is defined over this grid.
	Width  int `json:"width"`
	Height int `json:"height"`
	// MeshWidth / MeshHeight optionally pin the physical ×pipes grid
	// (zero auto-sizes it to the core count).
	MeshWidth  int `json:"mesh_width,omitempty"`
	MeshHeight int `json:"mesh_height,omitempty"`
	// BufferFlits is the router FIFO depth (default 4).
	BufferFlits int `json:"buffer_flits,omitempty"`
	// MemWaitStates is the intrinsic slave access time (default 1).
	MemWaitStates uint64 `json:"mem_wait_states,omitempty"`
	// Pattern is the spatial destination pattern: uniform, transpose,
	// bitcomp, bitrev, hotspot or neighbor.
	Pattern string `json:"pattern"`
	// Hotspot gives the per-node traffic fractions of the hotspot
	// pattern (index = logical node, sum <= 1).
	Hotspot []float64 `json:"hotspot,omitempty"`
	// AllowSelf permits a randomized pattern to target its own node.
	AllowSelf bool `json:"allow_self,omitempty"`
	// Dist is the injection (inter-arrival) distribution: uniform,
	// gaussian, poisson or bursty. Default poisson. Mutually exclusive
	// with Arrival.
	Dist string `json:"dist,omitempty"`
	// Arrival selects a bursty (MMPP) or self-similar arrival process
	// instead of Dist. The offered load then lives in the process
	// parameters, so the mean_gaps and curve_gaps load axes must be
	// empty.
	Arrival *sweep.Arrival `json:"arrival,omitempty"`
	// MeanGaps is the load axis: one grid point per mean
	// inter-transaction gap in cycles (smaller gap = higher load).
	MeanGaps []float64 `json:"mean_gaps,omitempty"`
	// Count is the per-master transaction count (default 1000).
	Count int `json:"count,omitempty"`
	// ClockPeriodsNS and Seeds are the remaining sweep axes.
	ClockPeriodsNS []uint64 `json:"clock_periods_ns,omitempty"`
	Seeds          []int64  `json:"seeds,omitempty"`

	// Measurement methodology (all optional; zero values keep the classic
	// whole-run accounting). Warmup discards the lead-in transient,
	// EpochCycles/Epochs split measurement into fixed epochs, CITarget
	// switches to adaptive epochs (run until the relative 95% CI
	// half-width of the per-epoch request-latency means reaches the
	// target, capped by MaxEpochs), and Drain bounds the completion
	// window after measurement. See sweep.Measure for the full semantics.
	Warmup      uint64  `json:"warmup,omitempty"`
	EpochCycles uint64  `json:"epoch_cycles,omitempty"`
	Epochs      int     `json:"epochs,omitempty"`
	MaxEpochs   int     `json:"max_epochs,omitempty"`
	CITarget    float64 `json:"ci_target,omitempty"`
	Drain       uint64  `json:"drain,omitempty"`

	// CurveGaps is the optional load axis for load-latency curve runs
	// (tgsweep -curve); empty selects sweep.DefaultCurveGaps. Ignored by
	// plain scenario sweeps, which use MeanGaps.
	CurveGaps []float64 `json:"curve_gaps,omitempty"`
	// CurveMode selects the curve traversal (sweep.CurveModeUniform or
	// sweep.CurveModeAdaptive); empty means uniform. A CLI -curve-mode
	// flag overrides it for the whole run.
	CurveMode string `json:"curve_mode,omitempty"`
}

// workloads expands the load axis into sweep workloads, resolving the
// optional dist (poisson) and mean_gaps ([10]). An arrival-process
// scenario keeps both empty — its load lives in the process parameters,
// and defaulting either would contradict the declared model — and expands
// to exactly one workload.
func (s Spec) workloads() []sweep.Workload {
	base := sweep.Workload{
		Kind:      sweep.KindStochastic,
		Dist:      s.Dist,
		Cores:     s.Width * s.Height,
		Count:     s.Count,
		Pattern:   s.Pattern,
		PatternW:  s.Width,
		PatternH:  s.Height,
		Hotspot:   s.Hotspot,
		AllowSelf: s.AllowSelf,
		Arrival:   s.Arrival,
	}
	if s.Arrival != nil {
		return []sweep.Workload{base}
	}
	if base.Dist == "" {
		base.Dist = "poisson"
	}
	gaps := s.MeanGaps
	if len(gaps) == 0 {
		gaps = []float64{10}
	}
	ws := make([]sweep.Workload, len(gaps))
	for i, gap := range gaps {
		ws[i] = base
		ws[i].MeanGap = gap
	}
	return ws
}

// fabric builds the sweep fabric of the scenario.
func (s Spec) fabric() sweep.Fabric {
	return sweep.Fabric{
		Interconnect:  s.Fabric,
		Topology:      s.Topology,
		MeshWidth:     s.MeshWidth,
		MeshHeight:    s.MeshHeight,
		BufferFlits:   s.BufferFlits,
		MemWaitStates: s.MemWaitStates,
	}
}

// Measure compiles the scenario's measurement fields into a sweep
// measurement configuration, or nil when none is set (classic whole-run
// accounting).
func (s Spec) Measure() *sweep.Measure {
	if s.Warmup == 0 && s.EpochCycles == 0 && s.Epochs == 0 &&
		s.MaxEpochs == 0 && s.CITarget == 0 && s.Drain == 0 {
		return nil
	}
	return &sweep.Measure{
		WarmupCycles: s.Warmup,
		EpochCycles:  s.EpochCycles,
		Epochs:       s.Epochs,
		MaxEpochs:    s.MaxEpochs,
		CITarget:     s.CITarget,
		DrainCycles:  s.Drain,
	}
}

// Grid compiles the scenario into a validated sweep grid (loads × one
// fabric × clocks × seeds). Grid.Validate checks every field the two
// formats share.
func (s Spec) Grid() (sweep.Grid, error) {
	if s.Name == "" {
		return sweep.Grid{}, fmt.Errorf("scenario: missing name")
	}
	// The load axes are what a grid does not have: an arrival process
	// carries its own load, and a listed gap must be a load, not the zero
	// a generator would silently replace with its default.
	if s.Arrival != nil && (len(s.MeanGaps) != 0 || len(s.CurveGaps) != 0) {
		return sweep.Grid{}, fmt.Errorf("scenario %q: arrival-process scenarios have no mean-gap load axis (the load lives in the process parameters)", s.Name)
	}
	for _, axis := range []struct {
		name string
		gaps []float64
	}{{"mean_gaps", s.MeanGaps}, {"curve_gaps", s.CurveGaps}} {
		for i, gap := range axis.gaps {
			if err := sweep.ValidateGap(gap); err != nil {
				return sweep.Grid{}, fmt.Errorf("scenario %q: %s[%d] %w", s.Name, axis.name, i, err)
			}
		}
	}
	g := sweep.Grid{
		Workloads:      s.workloads(),
		Fabrics:        []sweep.Fabric{s.fabric()},
		ClockPeriodsNS: s.ClockPeriodsNS,
		Seeds:          s.Seeds,
		Measure:        s.Measure(),
	}
	if err := g.Validate(); err != nil {
		return sweep.Grid{}, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	return g, nil
}

// Validate checks the scenario without building any platform. All
// structural pattern errors (non-square transpose, non-power-of-two bit
// patterns, hotspot weights past unit mass) surface here through the
// stochastic validator.
func (s Spec) Validate() error {
	_, err := s.Grid()
	return err
}

// DefaultCurveMeasure is the phased methodology a curve run uses when the
// scenario declares none: a warmup window, adaptive epochs to a ±5%
// request-latency confidence target.
var DefaultCurveMeasure = sweep.Measure{
	WarmupCycles: 1000,
	EpochCycles:  2000,
	CITarget:     0.05,
}

// Curve compiles the scenario into a load-latency curve specification:
// the scenario's traffic template swept over CurveGaps (or the stock
// axis) with phased measurement at every load level. Multi-valued clock
// and seed axes collapse to their first entry — a curve is one
// fabric/clock/seed trajectory by definition. CurveSpec.Validate is its one
// check.
func (s Spec) Curve() (sweep.CurveSpec, error) {
	if s.Arrival != nil {
		return sweep.CurveSpec{}, fmt.Errorf("scenario %q: curve runs sweep mean_gap, which arrival-process scenarios don't use", s.Name)
	}
	m := DefaultCurveMeasure
	if sm := s.Measure(); sm != nil {
		m = *sm
	}
	if m.EpochCycles == 0 {
		return sweep.CurveSpec{}, fmt.Errorf("scenario %q: curve runs need epoch_cycles (open-loop levels never complete)", s.Name)
	}
	cs := sweep.CurveSpec{
		Name:     s.Name,
		Workload: s.workloads()[0],
		Fabric:   s.fabric(),
		Gaps:     s.CurveGaps,
		Mode:     s.CurveMode,
		Measure:  m,
	}
	if len(s.ClockPeriodsNS) > 0 {
		cs.ClockPeriodNS = s.ClockPeriodsNS[0]
	}
	if len(s.Seeds) > 0 {
		cs.Seed = s.Seeds[0]
	}
	if err := cs.Validate(); err != nil {
		return sweep.CurveSpec{}, err
	}
	return cs, nil
}

// Curves compiles a scenario list into curve specifications, in order.
// Arrival-process scenarios have no mean-gap load axis to sweep, so they
// are skipped rather than failing the whole list — a library run curves
// every scenario that can be curved.
func Curves(specs []Spec) ([]sweep.CurveSpec, error) {
	out := make([]sweep.CurveSpec, 0, len(specs))
	for i, s := range specs {
		if s.Arrival != nil {
			continue
		}
		cs, err := s.Curve()
		if err != nil {
			return nil, fmt.Errorf("scenario %d: %w", i, err)
		}
		out = append(out, cs)
	}
	return out, nil
}

// Points compiles a scenario list into one flat, sequentially numbered
// sweep point list, ready for sweep.Runner. Scenarios expand in order, so
// the artifact layout is deterministic.
func Points(specs []Spec) ([]sweep.Point, error) {
	var pts []sweep.Point
	for i, s := range specs {
		g, err := s.Grid()
		if err != nil {
			return nil, fmt.Errorf("scenario %d: %w", i, err)
		}
		for _, p := range g.Expand() {
			p.ID = len(pts)
			pts = append(pts, p)
		}
	}
	return pts, nil
}

// maxFileSpecs bounds a scenario file's expansion.
const maxFileSpecs = 4096

// Parse reads a scenario file: one JSON Spec object or an array of them.
// Unknown fields are rejected, every spec is validated, and malformed
// input yields an error, never a panic.
func Parse(r io.Reader) ([]Spec, error) {
	data, err := io.ReadAll(io.LimitReader(r, 16<<20))
	if err != nil {
		return nil, fmt.Errorf("scenario: reading: %w", err)
	}
	// Dispatch on the leading token rather than try-and-fallback, so an
	// object-shaped file with a typo reports the useful object-decode
	// error (e.g. the unknown field name), not an array-shape mismatch.
	var specs []Spec
	if trimmed := bytes.TrimLeft(data, " \t\r\n"); len(trimmed) > 0 && trimmed[0] == '[' {
		if specs, err = parseAs[[]Spec](data); err != nil {
			return nil, fmt.Errorf("scenario: parsing: %w", err)
		}
	} else {
		one, err := parseAs[Spec](data)
		if err != nil {
			return nil, fmt.Errorf("scenario: parsing: %w", err)
		}
		specs = []Spec{one}
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("scenario: file holds no scenarios")
	}
	if len(specs) > maxFileSpecs {
		return nil, fmt.Errorf("scenario: %d scenarios exceed the %d limit", len(specs), maxFileSpecs)
	}
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("scenario %d: %w", i, err)
		}
	}
	return specs, nil
}

// parseAs decodes strict JSON into T, rejecting unknown fields and
// trailing garbage.
func parseAs[T any](data []byte) (T, error) {
	var v T
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		return v, err
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		return v, fmt.Errorf("scenario: trailing data after JSON document")
	}
	return v, nil
}
