package sweep

import (
	"encoding/json"
	"fmt"
	"io"

	"noctg/internal/layout"
	"noctg/internal/noc"
	"noctg/internal/ocp"
	"noctg/internal/prog"
	"noctg/internal/stochastic"
)

// Workload kinds.
const (
	// KindTG traces a paper benchmark once on the reference platform,
	// translates it, and replays the reactive TG programs on the point's
	// fabric (the paper's design-space-exploration flow).
	KindTG = "tg"
	// KindStochastic drives the fabric with seeded statistical masters
	// (the Lahiri-style baseline of Section 2).
	KindStochastic = "stochastic"
)

// Workload names one traffic source swept over the grid.
type Workload struct {
	// Kind is KindTG or KindStochastic.
	Kind string `json:"kind"`
	// Bench names the paper benchmark for KindTG: spmatrix, cacheloop,
	// mpmatrix, des or pipeline.
	Bench string `json:"bench,omitempty"`
	// Cores is the number of master devices.
	Cores int `json:"cores"`
	// Size is the benchmark size knob (matrix N, loop iterations, DES
	// blocks, pipeline items).
	Size int `json:"size,omitempty"`
	// Dist selects the stochastic distribution for KindStochastic:
	// uniform, gaussian, poisson or bursty.
	Dist string `json:"dist,omitempty"`
	// MeanGap is the stochastic mean inter-transaction gap in cycles
	// (default 10).
	MeanGap float64 `json:"mean_gap,omitempty"`
	// Count is the per-master stochastic transaction count (default 1000).
	Count int `json:"count,omitempty"`
	// Pattern selects a spatial destination pattern for KindStochastic:
	// uniform, transpose, bitcomp, bitrev, hotspot or neighbor. Empty
	// keeps the legacy shared-memory target. Master i is logical node i
	// of the PatternW×PatternH grid (PatternW·PatternH == Cores) and
	// node d's traffic lands in core d's private memory.
	Pattern string `json:"pattern,omitempty"`
	// PatternW, PatternH are the logical grid dimensions of the pattern.
	PatternW int `json:"pattern_w,omitempty"`
	PatternH int `json:"pattern_h,omitempty"`
	// Hotspot gives the per-node traffic fractions of the hotspot
	// pattern (index = logical node, sum <= 1).
	Hotspot []float64 `json:"hotspot,omitempty"`
	// AllowSelf permits a randomized pattern to target its own node.
	AllowSelf bool `json:"allow_self,omitempty"`
	// Arrival selects a bursty or self-similar arrival process for
	// KindStochastic, replacing Dist/MeanGap (the offered load lives in
	// the process parameters).
	Arrival *Arrival `json:"arrival,omitempty"`
}

// Label is a compact human-readable workload name, stable across runs.
func (w Workload) Label() string {
	if w.Kind == KindStochastic {
		temporal := w.Dist
		if w.Arrival != nil {
			temporal = w.Arrival.label()
		}
		if w.Pattern != "" {
			return fmt.Sprintf("stochastic-%s-%s%dx%d/%dP/%d",
				temporal, w.Pattern, w.PatternW, w.PatternH, w.Cores, w.Count)
		}
		return fmt.Sprintf("stochastic-%s/%dP/%d", temporal, w.Cores, w.Count)
	}
	return fmt.Sprintf("%s/%dP/%d", w.Bench, w.Cores, w.Size)
}

// spatial builds the stochastic Spatial configuration of a pattern
// workload: the logical grid is the core set, and node d's traffic lands
// in core d's private memory through the platform address map.
func (w Workload) spatial() (*stochastic.Spatial, error) {
	if w.Pattern == "" {
		return nil, nil
	}
	pat, err := stochastic.ParsePattern(w.Pattern)
	if err != nil {
		return nil, err
	}
	// Each side is bounded by the core count before the product, so the
	// product cannot wrap; Spatial.Validate refuses sides below 1.
	if w.PatternW > w.Cores || w.PatternH > w.Cores || w.PatternW*w.PatternH != w.Cores {
		return nil, fmt.Errorf("sweep: pattern grid %dx%d does not tile %d cores",
			w.PatternW, w.PatternH, w.Cores)
	}
	dests := make([]ocp.AddrRange, w.Cores)
	for d := range dests {
		dests[d] = layout.PrivRange(d)
	}
	s := &stochastic.Spatial{
		Pattern:        pat,
		W:              w.PatternW,
		H:              w.PatternH,
		Dests:          dests,
		HotspotWeights: w.Hotspot,
		AllowSelf:      w.AllowSelf,
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// spec builds the benchmark spec for a TG workload. The prog constructors
// panic on out-of-range sizes; convert that into a validation error so a
// bad grid never takes the process down.
func (w Workload) spec() (s *prog.Spec, err error) {
	defer func() {
		if r := recover(); r != nil {
			s, err = nil, fmt.Errorf("sweep: invalid workload %s (cores %d, size %d): %v", w.Label(), w.Cores, w.Size, r)
		}
	}()
	switch w.Bench {
	case "spmatrix":
		return prog.SPMatrix(w.Size), nil
	case "cacheloop":
		return prog.Cacheloop(w.Cores, w.Size), nil
	case "mpmatrix":
		return prog.MPMatrix(w.Cores, w.Size), nil
	case "des":
		return prog.DES(w.Cores, w.Size), nil
	case "pipeline":
		return prog.Pipeline(w.Cores, w.Size), nil
	}
	return nil, fmt.Errorf("sweep: unknown benchmark %q", w.Bench)
}

// dist maps the distribution name onto the stochastic package's enum.
func (w Workload) dist() (stochastic.Dist, error) {
	for d := stochastic.Uniform; d <= stochastic.Bursty; d++ {
		if d.String() == w.Dist {
			return d, nil
		}
	}
	return 0, fmt.Errorf("sweep: unknown distribution %q", w.Dist)
}

// fileMaxCount caps a file's per-master transaction count, so a hostile
// file cannot lock a worker into a multi-billion-transaction run; points
// built in code (a curve level) may ask for up to curveOpenCount.
const fileMaxCount = 10_000_000

// ValidateGap is the one rule for a mean gap that declares a load: cycles
// in (0, 1e9]. Zero is not a load (a generator reads it as "use the
// default"); NaN fails too. Callers prefix the field's name to the error.
func ValidateGap(gap float64) error {
	if !(gap > 0 && gap <= 1e9) {
		return fmt.Errorf("%g outside (0, 1e9]", gap)
	}
	return nil
}

// validate checks the workload with its transaction count capped at
// maxCount.
func (w Workload) validate(maxCount int) error {
	// A TG workload may leave cores (0) to its benchmark.
	if w.Cores < 0 || w.Cores > layout.MaxCores || w.Cores == 0 && w.Kind == KindStochastic {
		return fmt.Errorf("sweep: cores %d outside [1, %d]", w.Cores, layout.MaxCores)
	}
	if w.Count < 0 || w.Count > maxCount {
		return fmt.Errorf("sweep: count %d outside [0, %d]", w.Count, maxCount)
	}
	switch w.Kind {
	case KindTG:
		if w.Arrival != nil {
			return fmt.Errorf("sweep: arrival is a stochastic workload knob")
		}
		if w.Size <= 0 {
			return fmt.Errorf("sweep: workload %s needs a positive size", w.Bench)
		}
		spec, err := w.spec()
		if err != nil {
			return err
		}
		if w.Cores > 0 && spec.Cores != w.Cores {
			return fmt.Errorf("sweep: %s built %d cores, workload asked for %d",
				w.Bench, spec.Cores, w.Cores)
		}
	case KindStochastic:
		if w.Arrival != nil && (w.Dist != "" || w.MeanGap != 0) {
			return fmt.Errorf("sweep: arrival process and dist/mean_gap are mutually exclusive")
		}
		if w.MeanGap != 0 {
			if err := ValidateGap(w.MeanGap); err != nil {
				return fmt.Errorf("sweep: mean_gap %w", err)
			}
		}
		if w.Pattern == "" && (w.PatternW != 0 || w.PatternH != 0 || len(w.Hotspot) != 0) {
			return fmt.Errorf("sweep: pattern grid/weights set without a pattern")
		}
		// Compiling the generator configuration checks the arrival
		// process, the distribution and the spatial pattern.
		if _, err := w.StochasticConfig(1); err != nil {
			return err
		}
	default:
		return fmt.Errorf("sweep: unknown workload kind %q", w.Kind)
	}
	return nil
}

// Interconnect names.
const (
	FabricAMBA   = "amba"
	FabricXPipes = "xpipes"
)

// Fabric names one interconnect configuration swept over the grid.
type Fabric struct {
	// Interconnect is FabricAMBA or FabricXPipes.
	Interconnect string `json:"interconnect"`
	// Topology selects the ×pipes link structure: "mesh" (default) or
	// "torus" (wrap-around rings, shortest-path routing).
	Topology string `json:"topology,omitempty"`
	// MeshWidth / MeshHeight give the ×pipes grid dimensions; both zero
	// auto-sizes the grid to the core count.
	MeshWidth  int `json:"mesh_width,omitempty"`
	MeshHeight int `json:"mesh_height,omitempty"`
	// BufferFlits is the per-input, per-VC router FIFO depth (default 4).
	BufferFlits int `json:"buffer_flits,omitempty"`
	// MemWaitStates is the intrinsic slave access time (default 1).
	MemWaitStates uint64 `json:"mem_wait_states,omitempty"`
}

// Label is a compact human-readable fabric name, stable across runs.
func (f Fabric) Label() string {
	s := f.Interconnect
	if f.Interconnect == FabricXPipes {
		if f.Topology != "" && f.Topology != "mesh" {
			s += "-" + f.Topology
		}
		if f.MeshWidth > 0 || f.MeshHeight > 0 {
			s += fmt.Sprintf("-%dx%d", f.MeshWidth, f.MeshHeight)
		}
		if f.BufferFlits > 0 {
			s += fmt.Sprintf("-buf%d", f.BufferFlits)
		}
	}
	if f.MemWaitStates > 1 {
		s += fmt.Sprintf("-ws%d", f.MemWaitStates)
	}
	return s
}

// validate checks the fabric: interconnect, topology, the ×pipes geometry
// within the bounds the noc package sets, and the memory wait states.
func (f Fabric) validate() error {
	switch f.Interconnect {
	case FabricAMBA:
		if f.Topology != "" {
			return fmt.Errorf("sweep: topology %q is a ×pipes knob, not an AMBA one", f.Topology)
		}
	case FabricXPipes:
		if _, err := noc.ParseTopology(f.Topology); err != nil {
			return err
		}
	default:
		return fmt.Errorf("sweep: unknown interconnect %q", f.Interconnect)
	}
	if f.MeshWidth < 0 || f.MeshHeight < 0 || f.MeshWidth > noc.MaxMeshDim || f.MeshHeight > noc.MaxMeshDim {
		return fmt.Errorf("sweep: mesh_width %d, mesh_height %d outside [0, %d]",
			f.MeshWidth, f.MeshHeight, noc.MaxMeshDim)
	}
	if f.BufferFlits < 0 || f.BufferFlits > noc.MaxBufferFlits {
		return fmt.Errorf("sweep: buffer_flits %d outside [0, %d]", f.BufferFlits, noc.MaxBufferFlits)
	}
	if f.MemWaitStates > maxWaitStates {
		return fmt.Errorf("sweep: mem_wait_states %d outside [0, %d]", f.MemWaitStates, maxWaitStates)
	}
	return nil
}

// maxWaitStates bounds mem_wait_states. A memory charges its wait states
// once per beat and a beat count is below 2^32 (a TG burst's immediate),
// so an access takes under 2^48 cycles and its completion cannot wrap.
const maxWaitStates = 1 << 16

// topology resolves the ×pipes topology (mesh unless set).
func (f Fabric) topology() noc.Topology {
	t, _ := noc.ParseTopology(f.Topology)
	return t
}

// Grid is the cross product of workloads × fabrics × clock periods × seeds.
// Like Point it says what to compute, never how: execution knobs (workers,
// kernel, shards, guard, retry) live on the Runner only.
type Grid struct {
	Workloads []Workload `json:"workloads"`
	Fabrics   []Fabric   `json:"fabrics"`
	// ClockPeriodsNS lists the clock periods to sweep (default [5], the
	// paper's 200 MHz).
	ClockPeriodsNS []uint64 `json:"clock_periods_ns,omitempty"`
	// Seeds lists the stochastic seeds to sweep (default [1]). TG points
	// are deterministic: each TG configuration simulates once per
	// campaign, and its successful result is shared by every seed (a
	// failure never is; each seed simulates and reports its own).
	Seeds []int64 `json:"seeds,omitempty"`
	// Measure is every point's measurement plan (nil = the zero plan: one
	// open epoch over the whole run; see Measure).
	Measure *Measure `json:"measure,omitempty"`
	// Analytic enables the closed-form pre-pass on every stochastic
	// point (see Point.Analytic). TG points always simulate.
	Analytic bool `json:"analytic,omitempty"`
}

// Point is one fully-specified grid configuration. It holds only
// result-determining fields, which is what lets PointKey hash the whole
// value.
type Point struct {
	ID            int      `json:"id"`
	Workload      Workload `json:"workload"`
	Fabric        Fabric   `json:"fabric"`
	ClockPeriodNS uint64   `json:"clock_period_ns"`
	Seed          int64    `json:"seed"`
	// Measure is this point's measurement plan (nil = the zero plan: one
	// open epoch over the whole run; see Measure).
	Measure *Measure `json:"measure,omitempty"`
	// Analytic enables the closed-form pre-pass for this point: when the
	// queueing model brackets the operating region confidently (deep in
	// the linear region or deep past saturation), the point is recorded
	// as an estimated result instead of being simulated — never silently
	// dropped. Result-determining, so it is part of the journal key.
	Analytic bool `json:"analytic,omitempty"`
}

// Label identifies the point in reports.
func (p Point) Label() string {
	return fmt.Sprintf("%s@%s/clk%d/seed%d",
		p.Workload.Label(), p.Fabric.Label(), p.ClockPeriodNS, p.Seed)
}

// Expand enumerates the grid points in a fixed nesting order
// (workload → fabric → clock → seed); IDs are assigned in that order.
func (g Grid) Expand() []Point {
	clocks := g.ClockPeriodsNS
	if len(clocks) == 0 {
		clocks = []uint64{5}
	}
	seeds := g.Seeds
	if len(seeds) == 0 {
		seeds = []int64{1}
	}
	var pts []Point
	for _, w := range g.Workloads {
		for _, f := range g.Fabrics {
			for _, c := range clocks {
				for _, s := range seeds {
					pts = append(pts, Point{
						ID: len(pts), Workload: w, Fabric: f,
						ClockPeriodNS: c, Seed: s, Measure: g.Measure,
						Analytic: g.Analytic && w.Kind == KindStochastic,
					})
				}
			}
		}
	}
	return pts
}

// Validate checks every axis value so a bad grid fails before any engine is
// built, deterministically. It is the one validator of a run description
// (a scenario compiles to a Grid), so both file formats accept the same
// values: cores in [1, layout.MaxCores], count in [0, 10 000 000],
// mean_gap 0 (the default) or in (0, 1e9], mesh sides in [0,
// noc.MaxMeshDim], buffer_flits in [0, noc.MaxBufferFlits].
func (g Grid) Validate() error {
	if len(g.Workloads) == 0 {
		return fmt.Errorf("sweep: grid has no workloads")
	}
	if len(g.Fabrics) == 0 {
		return fmt.Errorf("sweep: grid has no fabrics")
	}
	for i, w := range g.Workloads {
		if err := w.validate(fileMaxCount); err != nil {
			return fmt.Errorf("workload %d: %w", i, err)
		}
	}
	for i, f := range g.Fabrics {
		if err := f.validate(); err != nil {
			return fmt.Errorf("fabric %d: %w", i, err)
		}
	}
	for i, c := range g.ClockPeriodsNS {
		if c == 0 {
			return fmt.Errorf("sweep: clock period %d is zero; omit the axis for the 5 ns default", i)
		}
	}
	if g.Measure != nil {
		return g.Measure.Validate()
	}
	return nil
}

// MaxShards bounds Runner.Shards so a mistyped -shards cannot demand
// thousands of goroutines per point. The fabric additionally clamps the
// effective count to its mesh height.
const MaxShards = 64

// ValidateShards checks a Runner.Shards setting.
func ValidateShards(shards int) error {
	if shards < 0 || shards > MaxShards {
		return fmt.Errorf("sweep: shards %d outside [0, %d]", shards, MaxShards)
	}
	return nil
}

// ParseGrid reads a JSON grid description. Unknown fields are rejected so a
// typo in a sweep file fails loudly rather than silently shrinking the grid.
func ParseGrid(r io.Reader) (Grid, error) {
	var g Grid
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&g); err != nil {
		return Grid{}, fmt.Errorf("sweep: parsing grid: %w", err)
	}
	if err := g.Validate(); err != nil {
		return Grid{}, err
	}
	return g, nil
}

// DefaultGrid is the stock 16-configuration design-space sweep: two
// trace-driven TG workloads and two stochastic baselines, each replayed on
// the AMBA bus (fast and slow slaves) and two ×pipes mesh variants.
func DefaultGrid() Grid {
	return Grid{
		Workloads: []Workload{
			{Kind: KindTG, Bench: "mpmatrix", Cores: 2, Size: 8},
			{Kind: KindTG, Bench: "cacheloop", Cores: 2, Size: 500},
			{Kind: KindStochastic, Dist: "uniform", Cores: 2, MeanGap: 8, Count: 400},
			{Kind: KindStochastic, Dist: "bursty", Cores: 2, MeanGap: 8, Count: 400},
		},
		Fabrics: []Fabric{
			{Interconnect: FabricAMBA},
			{Interconnect: FabricAMBA, MemWaitStates: 4},
			{Interconnect: FabricXPipes, MeshWidth: 4, MeshHeight: 2, BufferFlits: 2},
			{Interconnect: FabricXPipes, MeshWidth: 4, MeshHeight: 2, BufferFlits: 8},
		},
	}
}
