package sweep

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"slices"
	"sync"

	"noctg/internal/analytic"
	"noctg/internal/core"
	"noctg/internal/exp"
	"noctg/internal/guard"
	"noctg/internal/layout"
	"noctg/internal/noc"
	"noctg/internal/ocp"
	"noctg/internal/platform"
	"noctg/internal/sim"
	"noctg/internal/stochastic"
)

// Result is the outcome of one grid point. Every field is derived from
// simulated state only — no wall-clock times — so a result set serialises
// identically no matter how many workers produced it. A failed run keeps
// its slot with Err set instead of aborting the sweep.
type Result struct {
	ID            int    `json:"id"`
	Workload      string `json:"workload"`
	Fabric        string `json:"fabric"`
	ClockPeriodNS uint64 `json:"clock_period_ns"`
	Seed          int64  `json:"seed"`
	Err           string `json:"err,omitempty"`
	// Violation carries the structured guard diagnostic when the failure
	// was a watchdog violation or a recovered panic; Err holds the flat
	// message either way. Fault-free points omit it, so guarded fault-free
	// artifacts stay byte-identical to unguarded ones.
	Violation *guard.Violation `json:"violation,omitempty"`

	// MakespanCycles is the latest master completion cycle; MakespanNS is
	// the same through the point's clock.
	MakespanCycles uint64 `json:"makespan_cycles"`
	MakespanNS     uint64 `json:"makespan_ns"`
	// Engine is the end-of-run kernel snapshot (includes drain cycles).
	Engine sim.Snapshot `json:"engine"`
	// Transactions counts OCP commands observed at the master ports;
	// Reads counts those with responses.
	Transactions uint64 `json:"transactions"`
	Reads        uint64 `json:"reads"`
	// Latency summarises per-read response latency in cycles.
	Latency sim.HistogramSnapshot `json:"latency"`
	// ThroughputTPK is transactions per thousand simulated cycles.
	ThroughputTPK float64 `json:"throughput_tpk"`
	// FlitsRouted counts NoC link traversals (zero on AMBA);
	// BusBusyCycles counts occupied bus cycles (zero on ×pipes).
	FlitsRouted   uint64 `json:"flits_routed"`
	BusBusyCycles uint64 `json:"bus_busy_cycles"`

	// Phases carries the per-phase breakdown (warmup/measure/drain windows
	// and per-epoch statistics) of a point that has a Measure; nil on a
	// point that runs the zero plan, whose artifacts therefore serialise
	// exactly as they did before phases existed. Either way the summary
	// fields above come from the same accounting (see measure).
	Phases *PhaseStats `json:"phases,omitempty"`

	// Estimated marks a result produced by the closed-form estimator
	// instead of simulation (analytic pre-pass, Point.Analytic): the point
	// sat far enough from the predicted knee — error bars included — that
	// the model brackets it confidently. Estimated results carry the
	// predicted throughput and mean latency; counters that only a
	// simulation can produce (makespan, flits, histograms) stay zero.
	// Omitempty keeps simulated artifacts byte-identical.
	Estimated bool `json:"estimated,omitempty"`
	// Analytic carries the full prediction on estimated results.
	Analytic *analytic.Estimate `json:"analytic,omitempty"`
}

// Runner executes grid points over a bounded worker pool. It is the one
// home of the execution knobs — how to run, never what to compute: every
// setting below except MaxCycles leaves fault-free artifacts
// byte-identical, and none of them enters a point's journal key.
type Runner struct {
	// Workers bounds concurrent engines (<= 0 means GOMAXPROCS).
	Workers int
	// MaxCycles overrides the per-run cycle budget. Zero picks a default:
	// 8× the benchmark's MaxCycles for TG points (slow fabrics stretch the
	// run), 2,000,000 cycles for stochastic points.
	MaxCycles uint64
	// Kernel selects the simulation kernel for every grid point (default
	// event); every kernel produces byte-identical artifacts (asserted by
	// the execution-axis differentials, TestKernelDifferential*).
	Kernel platform.KernelMode
	// Shards > 1 runs each ×pipes simulation across that many engine
	// goroutines (the -shards flag; see platform.Config.Shards). Artifacts
	// are byte-identical for every value, 0 included — the execution-axis
	// differentials pin this. AMBA points ignore it.
	Shards int
	// Guard arms the guard watchdogs (see internal/guard) on every point's
	// platform. Fault-free guarded points produce byte-identical artifacts
	// to unguarded ones; a violating or budget-exceeded point is recorded
	// as a failed Result (Err + Violation) and the rest of the grid
	// completes.
	Guard *guard.Config
	// Retry is the retry policy of every point and curve level (the
	// -retries flags). Nil means one attempt.
	Retry *RetryPolicy
	// Interrupted, when set, is polled by the one point executor before
	// each point starts — grid, journaled and curve runs alike. Once it
	// returns true no further point starts (in-flight points finish) and
	// the run returns ErrDrained. tgsweep wires it to SIGINT/SIGTERM under
	// -journal, where a drained campaign can resume.
	Interrupted func() bool

	// wrap, when set, replaces every stochastic master a point builds with
	// wrap(point, attempt, master): the seam through which package tests
	// put a hostile device (one that panics, sleeps or never finishes)
	// into the platform a point runs on. attempt is 1-based.
	wrap func(p Point, attempt int, m platform.Master) platform.Master
	// simulated, when set, is called with every point that simulates (or
	// is estimated) rather than copying a shared TG result: the seam
	// through which package tests count simulations.
	simulated func(p Point)
}

const stochasticMaxCycles = 2_000_000

// tgOverrun stretches a benchmark's cycle budget so slow sweep fabrics
// (deep wait states, small meshes) still finish.
const tgOverrun = 8

// programCache is a campaign's memory of its TG work. It translates each
// distinct TG workload once and shares the read-only programs across every
// point (and worker) that replays them — the paper's trace-once/replay-many
// exploration flow. Sharing is safe: TG devices keep all mutable state
// (registers, PC) in the device, never in the program.
//
// It also simulates each TG configuration once per campaign. A TG replay
// is deterministic, so its result depends on program × fabric × clock ×
// measurement plan and never on the seed: the first point of a seed-free
// configuration simulates, and every later one copies its result under
// its own ID and seed. Only a successful result is shared; a failed one
// never is, so each seed that meets a failure simulates, retries and
// reports it on its own.
type programCache struct {
	mu      sync.Mutex
	m       map[tgKey]*programEntry
	results map[string]*resultEntry // by PointKey with ID and Seed zeroed
}

// tgKey identifies a distinct translation: the benchmark spec is fully
// determined by name, core count and size (spatial-pattern fields belong
// to stochastic workloads, which never reach the cache).
type tgKey struct {
	Bench string
	Cores int
	Size  int
}

type programEntry struct {
	once  sync.Once
	progs []*core.Program
	err   error
}

type resultEntry struct {
	once sync.Once
	res  Result
}

// entry returns m's entry for k, adding an empty one if there is none.
func entry[K comparable, E any](c *programCache, m *map[K]*E, k K) *E {
	c.mu.Lock()
	defer c.mu.Unlock()
	if *m == nil {
		*m = make(map[K]*E)
	}
	e, ok := (*m)[k]
	if !ok {
		e = new(E)
		(*m)[k] = e
	}
	return e
}

func (c *programCache) get(w Workload) ([]*core.Program, error) {
	e := entry(c, &c.m, tgKey{Bench: w.Bench, Cores: w.Cores, Size: w.Size})
	e.once.Do(func() { e.progs, e.err = translate(w) })
	return e.progs, e.err
}

// result returns TG point p's result: simulate's when p is the first point
// of its seed-free configuration or that configuration failed, else a copy
// of the shared success with p's own ID and seed.
func (c *programCache) result(p Point, simulate func() Result) Result {
	k := p
	k.ID, k.Seed = 0, 0
	e := entry(c, &c.results, PointKey(k))
	first := false
	e.once.Do(func() { e.res, first = simulate(), true })
	switch {
	case first:
		return e.res
	case e.res.Err != "":
		return simulate()
	}
	res := e.res
	res.ID, res.Seed = p.ID, p.Seed
	return res
}

// translate runs the reference (cycle-true ARM, AMBA) platform traced and
// converts the traces into TG programs. The cross-interconnect equality
// property (Section 6) guarantees the programs are fabric-independent, so
// one translation serves every fabric in the grid.
func translate(w Workload) ([]*core.Program, error) {
	spec, err := w.spec()
	if err != nil {
		return nil, err
	}
	ref, err := exp.RunReference(spec, exp.DefaultOptions(), true)
	if err != nil {
		return nil, fmt.Errorf("sweep: reference %s: %w", w.Label(), err)
	}
	progs, _, _, err := exp.TranslateAll(spec, ref.Traces,
		core.DefaultTranslateConfig(exp.PollRangesFor(spec)))
	if err != nil {
		return nil, fmt.Errorf("sweep: translate %s: %w", w.Label(), err)
	}
	return progs, nil
}

// validatePoints rejects invalid points up front so a sweep (journaled or
// not) never records half a campaign before discovering a bad grid. A point
// built in code may ask for up to curveOpenCount transactions.
func (r Runner) validatePoints(points []Point) error {
	for _, p := range points {
		if err := p.Workload.validate(curveOpenCount); err != nil {
			return fmt.Errorf("sweep: point %d: %w", p.ID, err)
		}
		if err := p.Fabric.validate(); err != nil {
			return fmt.Errorf("sweep: point %d: %w", p.ID, err)
		}
		if p.ClockPeriodNS == 0 {
			return fmt.Errorf("sweep: point %d: zero clock period", p.ID)
		}
		if p.Measure != nil {
			if err := p.Measure.Validate(); err != nil {
				return fmt.Errorf("sweep: point %d: %w", p.ID, err)
			}
		}
	}
	if err := ValidateShards(r.Shards); err != nil {
		return err
	}
	return r.Retry.Validate()
}

// Run executes every point and returns the results in point order,
// regardless of Workers. It returns an error only for an invalid grid
// point or a drain; individual run failures are recorded in Result.Err.
func (r Runner) Run(points []Point) ([]Result, error) {
	if err := r.validatePoints(points); err != nil {
		return nil, err
	}
	return r.execPoints(&programCache{}, points, nil)
}

// execPoints is the one point executor behind Run, RunJournaled and every
// lockstep round of RunCurves: it restores the points journal j holds as
// done, runs the rest through the retry policy on the worker pool —
// journaled when j is set — and starts none once Interrupted fires
// (ErrDrained). Results come back in point order.
func (r Runner) execPoints(cache *programCache, points []Point, j *campaignJournal) ([]Result, error) {
	results := make([]Result, len(points))
	var tasks []func() error
	for i := range points {
		p, res := &points[i], &results[i]
		key, prior := "", 0
		var onAttempt func(int) error
		if j != nil {
			key = PointKey(*p)
			if rec, ok := j.log.Done[key]; ok {
				if err := json.Unmarshal(rec.Result, res); err != nil {
					return nil, fmt.Errorf("sweep: point %d: journal result: %w", p.ID, err)
				}
				j.status.Resumed++
				continue
			}
			prior, onAttempt = j.log.Attempts[key], func(a int) error { return j.w.Start(key, a) }
		}
		tasks = append(tasks, func() (err error) {
			var attempt int
			if *res, attempt, err = r.runPointRetry(cache, *p, prior, onAttempt); err != nil || j == nil {
				return err
			}
			return j.done(key, attempt, *res)
		})
	}
	errs := RunDrained(r.Workers, tasks, r.Interrupted)
	drained := 0
	for i, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, ErrDrained):
			drained, errs[i] = drained+1, nil
		case slices.ContainsFunc(errs[:i], func(e error) bool { return e != nil && errors.Is(err, e) }):
			// A failed journal is sticky: every later point's Start and Done
			// return the same error value. It is reported once.
			errs[i] = nil
		}
	}
	if j != nil {
		j.status.Ran += len(tasks) - drained
		j.status.Skipped += drained
	}
	err := errors.Join(errs...)
	if err == nil && drained > 0 {
		err = ErrDrained
	}
	return results, err
}

// Analytic pre-pass confidence bounds: a point is estimated instead of
// simulated only when the predicted bottleneck demand ratio — widened by
// the model's own knee error bar — puts it deep in the linear region or
// deep past saturation. Everything near the knee simulates.
const (
	analyticLowUtil  = 0.5
	analyticHighUtil = 1.25
)

// analyticEstimate fills res from the closed-form model when the point is
// confidently bracketed, reporting whether it did. It reports false —
// simulate normally — when the estimator cannot compile for this
// configuration, the workload has no finite mean gap, or the point sits
// too close to the predicted knee for the model's error bars. The
// decision is a pure function of the point (compilation is microseconds),
// so no cache is needed and determinism across workers is free.
func (r Runner) analyticEstimate(p Point, res *Result) bool {
	est, err := NewEstimator(p.Workload, p.Fabric)
	if err != nil {
		return false
	}
	gap := est.Spec().Traffic.MeanGap
	if gap <= 0 {
		return false
	}
	e := est.Estimate()
	u := est.DemandRatioAt(gap)
	lo := analyticLowUtil * (1 - e.KneeRelErr)
	hi := analyticHighUtil * (1 + e.KneeRelErr)
	if u > lo && u < hi {
		return false
	}
	res.Estimated = true
	res.Analytic = &e
	res.ThroughputTPK = est.ThroughputAt(gap)
	res.Latency = sim.HistogramSnapshot{Mean: est.LatencyAt(gap)}
	return true
}

// runPointExec executes one attempt of one configuration. A TG point goes
// through the cache, which simulates each seed-free configuration once per
// campaign (see programCache); every other point simulates on its own.
// attempt is 1-based.
func (r Runner) runPointExec(cache *programCache, p Point, attempt int) Result {
	if p.Workload.Kind != KindTG {
		return r.simulate(cache, p, attempt)
	}
	return cache.result(p, func() Result { return r.simulate(cache, p, attempt) })
}

// simulate executes one attempt of one configuration on its own engine. A
// panicking model is recorded as that point's failure rather than aborting
// the sweep. Every attempt runs the runner's own kernel and shard count:
// every row of them computes the same bytes, so a point that passed only
// on another would hide a kernel bug.
func (r Runner) simulate(cache *programCache, p Point, attempt int) (res Result) {
	if r.simulated != nil {
		r.simulated(p)
	}
	defer func() {
		if rec := recover(); rec != nil {
			// Keep the point's identity fields: a panic mid-build must still
			// say which configuration blew up.
			res.Err = fmt.Sprintf("panic: %v", rec)
			res.Violation = &guard.Violation{Kind: guard.KindPanic, Shard: -1,
				Msg:   fmt.Sprintf("point %s: %v", p.Label(), rec),
				Stack: string(debug.Stack())}
		}
	}()
	res = Result{
		ID:            p.ID,
		Workload:      p.Workload.Label(),
		Fabric:        p.Fabric.Label(),
		ClockPeriodNS: p.ClockPeriodNS,
		Seed:          p.Seed,
	}
	if p.Analytic && r.analyticEstimate(p, &res) {
		return res
	}
	cfg := platform.Config{
		Cores:        p.Workload.Cores,
		Interconnect: platform.XPipes,
		NoC: noc.Config{
			Width:       p.Fabric.MeshWidth,
			Height:      p.Fabric.MeshHeight,
			Topology:    p.Fabric.topology(),
			BufferFlits: p.Fabric.BufferFlits,
		},
		MemWaitStates: p.Fabric.MemWaitStates,
		Clock:         sim.Clock{PeriodNS: p.ClockPeriodNS},
		Kernel:        r.Kernel,
		Shards:        r.Shards,
		Trace:         p.Workload.Kind == KindTG, // TG masters carry no meter of their own
	}
	if p.Fabric.Interconnect == FabricAMBA {
		cfg.Interconnect = platform.AMBA
	}

	var (
		sys       *platform.System
		maxCycles uint64
		err       error
	)
	switch p.Workload.Kind {
	case KindTG:
		var progs []*core.Program
		progs, err = cache.get(p.Workload)
		if err != nil {
			res.Err = err.Error()
			return res
		}
		spec, _ := p.Workload.spec()
		cfg.Cores = spec.Cores
		maxCycles = spec.MaxCycles * tgOverrun
		sys, err = platform.BuildTG(cfg, progs)
	case KindStochastic:
		maxCycles = stochasticMaxCycles
		var scfg stochastic.Config
		if scfg, err = p.Workload.StochasticConfig(p.Seed); err != nil {
			res.Err = err.Error()
			return res
		}
		scfg.Ranges = []ocp.AddrRange{layout.SharedRange()}
		sys, err = platform.Build(cfg, func(_ *platform.System, id int, port ocp.MasterPort) platform.Master {
			if r.wrap != nil {
				return r.wrap(p, attempt, stochastic.New(id, scfg, port))
			}
			return stochastic.New(id, scfg, port)
		})
	}
	if err != nil {
		res.Err = err.Error()
		return res
	}
	if r.MaxCycles > 0 {
		maxCycles = r.MaxCycles
	}
	if r.Guard != nil {
		sys.EnableGuard(*r.Guard)
	}

	if err := measure(sys, p.Measure, maxCycles, &res); err != nil {
		recordFailure(&res, err)
		return res
	}
	recycle(sys)
	return res
}

// recycle clears the memories of a platform whose point ran to completion,
// so the next platform this process builds takes their backing stores
// instead of allocating its own (see mem.RAM). A failed point keeps its
// memories: a shard the guard gave up on may still be writing to them.
func recycle(sys *platform.System) {
	for _, m := range sys.Privs {
		m.Clear()
	}
	sys.Shared.Clear()
}

// recordFailure records a run error on the result, preserving the typed
// guard violation (with its diagnostic dump) when the error carries one.
func recordFailure(res *Result, err error) {
	res.Err = err.Error()
	if v, ok := guard.AsViolation(err); ok {
		res.Violation = v
	}
}
