// Package noctg is a Go reproduction of "A Network Traffic Generator Model
// for Fast Network-on-Chip Simulation" (Mahadevan, Angiolini, Storgaard,
// Olsen, Sparsø, Madsen — DATE 2005): a complete MPARM-like cycle-true
// MPSoC simulation platform, and on top of it the paper's reactive Traffic
// Generator (TG) flow that replaces bit- and cycle-true IP cores with tiny
// trace-programmed processors for 2–5× faster interconnect design-space
// exploration at ≈100% cycle accuracy.
//
// The flow, end to end:
//
//	bench := noctg.MPMatrix(4, 16)                     // an SPMD workload
//	ref, _ := noctg.RunReference(bench, opt, true)     // cycle-true ARM run, traced
//	progs, _, _, _ := noctg.TranslateAll(bench, ref.Traces,
//	        noctg.DefaultTranslateConfig(noctg.PollRangesFor(bench)))
//	tg, _ := noctg.RunTG(bench, progs, opt)            // TGs replace the cores
//	// tg.Makespan ≈ ref.Makespan, tg.Wall ≪ ref.Wall
//
// The package is a thin facade — exactly the names the programs under
// examples/ import, which a test enforces — over the implementation
// packages under internal/:
// simulation kernel (sim), OCP transaction layer (ocp), memories and
// hardware semaphores (mem), AMBA AHB-style bus (amba), ×pipes-style
// wormhole NoC (noc), caches (cache), the miniARM ISS and its assembler
// (cpu), the Table 2 benchmarks (prog), the .trc trace format (trace), the
// TG instruction set / translator / device (core), baseline generators
// (replay, stochastic), platform assembly (platform), the experiment
// harness (exp) and the parallel sweep runner (sweep). Qualified names
// below (sweep.Measure, guard.Config) are those packages' own. README.md's
// "Repository tour" is the system inventory; cmd/tgrepro -all prints the
// measured-vs-paper results.
//
// Design-space sweeps run in parallel through the sweep API: a SweepGrid
// (workloads × fabrics × clock periods × seeds) expands into independent
// configurations, each simulated on its own engine by a bounded worker
// pool, with deterministic JSON/CSV artifacts — byte-identical for any
// worker count:
//
//	grid := noctg.SweepGrid{Workloads: …, Fabrics: …, Seeds: …}
//	results, _ := noctg.SweepRunner{Workers: 8}.Run(grid.Expand())
//	noctg.WriteSweepCSV(os.Stdout, results)
//
// The cmd/tgsweep CLI wraps the same flow (-grid, -workers, -out), and
// cmd/tgrepro regenerates the paper's whole evaluation as one parallel
// invocation. A grid file and a scenario file share one validator
// (SweepGrid.Validate) and one set of bounds — cores in [1, 112], count in
// [0, 10 000 000], a mean gap in (0, 1e9], mesh sides and buffer depth in
// [0, 64] — so both fail by field name before any platform is built.
//
// # Spatial traffic patterns and scenarios
//
// Stochastic masters pair a temporal Dist (when to inject) with a spatial
// pattern (where to send): stochastic.UniformRandom, Transpose,
// BitComplement, BitReverse, Hotspot and NearestNeighbor, the classic NoC
// evaluation set.
// Patterns are defined over the logical W×H grid of masters — generator i
// is node (i mod W, i div W) — and each logical destination d maps to core
// d's private memory through the platform address map, so the same
// scenario runs unchanged on the bus, the mesh and the torus. Semantics
// worth knowing: Transpose requires a square grid and maps diagonal nodes
// to themselves; the bit patterns require a power-of-two node count;
// Hotspot weights must sum to at most 1 with the remainder spread
// uniformly over unweighted nodes (excluding the source unless AllowSelf);
// NearestNeighbor wraps at the logical grid edges. Randomized patterns
// never draw the source unless AllowSelf is set. A ScenarioSpec bundles
// pattern, fabric, topology and the load/clock/seed axes into a JSON
// document executable via ScenarioPoints + SweepRunner or tgsweep
// -scenario; the ×pipes torus adds wrap-around links with shortest-path
// dimension-ordered routing and dateline virtual channels for ring
// deadlock freedom.
//
// # Arrival processes and generator validation
//
// Beyond the i.i.d. gap distributions (Dist), a stochastic workload can
// carry a stateful arrival process as its temporal model: a
// stochastic.MMPP — a cyclic Markov chain of states, each with its own mean
// gap (0 = silent) and exponential or deterministic dwell time, the classic
// on/off burst model — or a stochastic.SelfSimilar, which superposes Pareto
// on/off stations (shape α = 3 − 2H) into long-range-dependent traffic with
// a target Hurst exponent.
//
// Arrival-process semantics worth knowing: processes evolve on an exact
// float64 virtual clock and discretize by flooring event epochs, so
// rounding errors telescope instead of accumulating — a continuous process
// of rate λ injects at exactly λ/(1+λ) transactions per cycle once the
// one-cycle acceptance handshake is counted. Draws come from the
// generator's seeded stream only (determinism class: same seed, same
// schedule, on every kernel and shard count). In grids and scenarios the process rides the "arrival"
// axis (mutually exclusive with dist/mean_gap, and without a mean-gap load
// axis: the load lives in the process parameters).
//
// The generator-validation harness (internal/valid, tgsweep -validate)
// keeps these models honest: every source runs open-loop against an
// instantly-accepting capture port and its stream is checked against
// analytic expectations — offered load within the 95% Student-t CI of the
// spec rate, inter-injection times against exact discretized CDFs
// (Kolmogorov–Smirnov), index of dispersion against the finite-window
// MMPP variance-time curve, and aggregate-variance Hurst estimates. The
// fidelity report (valid.Report JSON) is
// byte-identical across kernels and worker counts, so the whole suite
// runs as deterministic CI tests rather than flaky statistics.
//
// # Analytic estimation and adaptive sweeps
//
// A closed-form queueing estimator (internal/analytic, compiled per
// workload/fabric pair by sweep.NewEstimator) predicts a stochastic
// configuration's operating
// corner without simulating it: contention-free zero-load latency from
// the fabric's pipeline constants and DOR route lengths, per-resource
// occupancy (bus, links, slave ports) from the destination distribution,
// the saturation knee from the bottleneck's demand, and below-knee mean
// latency from a Schweitzer approximate-MVA fixed point over the closed
// population of masters, with the gap distribution's SCV scaling the
// waiting term. Model assumptions, and where they bite: single-beat
// transactions; posted writes charged to resource occupancy but not the
// issuing master's own latency (so heavy-write self-interference is
// underpredicted by ~10-15%); independence across resources (weakest
// under extreme destination skew); renewal arrivals (MMPP/self-similar
// sources enter only through their gap SCV). Each Estimate carries
// structural error bars (KneeRelErr, LatencyRelErr) that widen with
// burstiness and skew, and a validity floor (ValidMinGap) below which
// LatencyAt returns the closed-loop asymptote rather than a steady-state
// mean.
//
// The sweep layer spends these predictions in three places. Curve runs
// (sweep.CurveModeAdaptive, tgsweep -curve-mode adaptive) seed their load axis
// from the knee the saturation detector would find on the model's own
// curve, simulate a handful of levels around it plus the axis endpoints,
// and golden-section the bracket until the detected knee is pinned to one
// ladder step — skipped levels are recorded as estimated points, never
// dropped, and the cross-validation suite holds the detected knee within
// one step of a uniform traversal at 40%+ fewer simulated levels. Grid
// sweeps (sweep.Point.Analytic, tgsweep -analytic) estimate points the model
// brackets confidently — far from the predicted knee, error bars included
// — and simulate the rest; estimated results are flagged ("estimated":
// true), carry the full prediction, and key the journal distinctly, so
// analytic and simulated campaigns never share resume state. And tgsweep
// -print-scenarios tables each scenario's predicted zero-load latency and
// knee without running anything. All predictions are pure functions of
// the configuration: artifacts stay byte-identical across kernels, worker
// counts and shard counts, and the estimator's hot path allocates nothing.
//
// # Simulation kernels
//
// Three cycle-advance strategies drive every platform
// (PlatformConfig.Kernel, tgsweep/tgrepro -kernel): the strict kernel
// ticks every device on every cycle; the idle-skipping kernel jumps the
// cycle counter over spans in which every device has declared itself
// asleep (a TG deep in an Idle, a drained interconnect); and the
// event-driven kernel keeps a per-device wake schedule and each cycle
// ticks only the devices that are due, so its per-cycle cost scales with
// the awake set rather than the core count (one saturated master among
// many idle ones no longer forces full-platform ticking). The contracts
// behind them: a Sleeper's NextWake is a strict "will not act before"
// promise that holds even while the device is not being ticked; devices
// stimulated from outside their own Tick (interconnects receiving
// TryRequest) fire an engine wake hook at the moment of stimulus; and a
// master blocked on its port sleeps with WakeNever because the port wakes
// it: the AMBA port and the ×pipes master NI hold the master's wake handle
// (SetWaker, through ocp.PassWaker) and call its WakeAt at the accept and
// when the response becomes takeable. A master whose port cannot take the
// handle polls every blocked cycle. The event kernel is the zero value of
// platform.KernelMode and so every platform's default; skip remains
// selectable for cross-checking and as the simpler fallback, and any
// platform containing a non-Sleeper device (a miniARM core) silently
// degrades to strict ticking under either.
//
// All three produce identical simulated results — the differential tests
// assert byte-identical sweep artifacts across the full kernel matrix.
// ARM reference runs always tick strictly: the paper's reported ARM-vs-TG
// speedup comes from the TG model doing less work per cycle, and
// measuring the reference on a kernel that elides idle cycles would
// understate the ARM cost and corrupt the Table 2 Gain column.
// Speedup-fidelity, in short: kernel tricks accelerate the reproduction,
// but never the baseline the paper's claims are calibrated against.
//
// The three kernels pick which devices to tick; the sharded run mode
// (PlatformConfig.Shards, SweepRunner.Shards, tgsweep -shards,
// internal/shard) additionally picks where: the ×pipes fabric is
// partitioned into contiguous row bands, each band's routers, masters and
// slaves advance on their own engine goroutine under the chosen kernel,
// and the shards synchronise with conservative time windows bounded by
// the same NextWake promise the kernels rely on. Cross-shard flits move
// through preallocated cut-link rings at window boundaries with uncut-link
// timing, and the fabric's flow control and the platform's completion
// stride are the same on every path, so the shard count is a pure
// execution knob: every value — 0 (one engine) included — computes
// byte-identical artifacts under every kernel (the execution-axis
// differentials of internal/simtest compare every kernel × shard count
// against the strict single-engine run).
//
// Inside a cycle the ×pipes fabric (internal/noc) pays only for flits that
// exist. Its one flow-control rule — downstreamSpace reads the downstream
// FIFO's occupancy as of the start of the cycle — makes a cycle's outcome
// independent of router tick order, and a router holding no flit can
// change nothing, so three summaries of state the fabric already keeps let
// a tick skip the rest without moving a byte of any artifact. Each router
// has an occupancy mask over its (port, VC) input FIFOs, set where a flit
// enters (router.pushIn, the only such place) and cleared when a pop
// empties a FIFO; it probes only candidate (output, out-VC) channels —
// those with a wormhole owner plus those a front head flit requests, a
// superset of every channel on which allocation or forwarding could act,
// topped up after each forward because a pop can surface the next packet's
// head — in the round-robin order a scan of all twenty would use. Each
// pool domain (the network, or one shard's Region) has a bitmap of its
// routers that hold flits, walked in ascending router id and written only
// by the goroutine ticking that domain: in its compute step for local
// pushes, in its own Exchange for cut-link imports. And quiescence
// (Idle, NextWake) is a resident-flit count and a busy-NI count, not a
// scan. The redundant state is checked, not trusted: the guard layer's
// conservation scan verifies masks, request cache, active sets and counts
// against the FIFOs and owner tables, and the exhaustive schedule survives
// as a test-only reference that production must match cycle for cycle.
//
// Between points a campaign recycles its platforms' memories. A RAM takes
// its backing store on the first write and reads as zeros until then;
// Clear wipes the store and pools it, and the sweep runner clears the
// memories of every point that ran to completion. Building one platform
// per point no longer allocates, and collects, hundreds of KiB that
// nothing wrote: with the fabric cheap, those collections had become the
// largest source of run-to-run variation in a sweep's wall time.
//
// # Phased measurement
//
// Every platform carries a unified stats registry (sim.Registry): devices
// register their counters and histograms once under hierarchical names,
// and measurement code syncs, snapshots and resets the whole population at
// phase boundaries. On top of it, runs can follow the steady-state
// methodology NoC evaluations expect — a warmup window whose statistics
// are discarded, measurement epochs (fixed count, or adaptive until the
// relative 95% CI half-width of the per-epoch request-latency means
// reaches ci_target), and a bounded drain window (sweep.Measure on a grid
// or point, or the scenario fields warmup/epoch_cycles/epochs/ci_target/
// drain).
//
// Phase semantics interact with the kernels through one rule: boundaries
// are forced wake points. Each phase window executes as its own bounded
// kernel run, and the skip and event kernels clamp their cycle jumps at
// window ends exactly as they clamp at cycle budgets — no jump ever
// crosses a boundary, so strict, skip and event runs hit byte-identical
// boundary cycles and snapshot identical registry state there (asserted
// by the phased differential tests). Lazily credited statistics (the
// bus's bulk busy/idle and wait-cycle credits) register sync hooks so a
// boundary snapshot attributes every elided cycle to the epoch it belongs
// to. The warmup → epochs → drain sequencing lives once (sim.Phases.Run);
// the single engine and the shard runner each supply only their "run one
// window" function, so a plan and its errors do not depend on the shard
// count.
//
// There is one accounting. Every sweep point fills its result from the
// per-master traffic meters and the stats registry at epoch boundaries; a
// point without a Measure runs the zero plan — no warmup, one open epoch
// from cycle 0 to completion, no drain — and carries no Phases block, and
// warmup=0, epochs=1, drain=0 is that plan written out: the same bytes plus
// the block. Each master has one meter: a stochastic generator its own, a
// TG replay master a port Monitor (Config.Trace), which meters at no
// allocation and records an event log only after Monitor.Record — which
// RunReference, the run whose product is the paper's trace, alone calls.
//
// Load-latency curves (sweep.CurveSpec, tgsweep -curve) build on phased
// measurement: one stochastic scenario swept over an injection-load axis,
// each level measured open-loop in adaptive epochs, with the saturation
// point detected from the marginal-throughput knee, request-latency
// blow-up versus zero-load, or unbounded epoch-over-epoch latency growth.
//
// # Guard layer: watchdogs and fault injection
//
// A guard.Config (Options.Guard, SweepRunner.Guard, the -guard and
// -run-budget CLI flags) arms runtime invariant watchdogs on any run: a
// deadlock horizon (live packets but no retirement for NoRetireHorizon
// cycles), flit/credit and packet-pool conservation scans every
// ConservationEvery cycles, a wall-clock RunBudget for the whole run
// (-run-budget alone arms only this one), and
// a BarrierStall watchdog on the sharded SPMD barrier. A tripped watchdog
// aborts the run with a typed *guard.Violation — kind, cycle, shard and a
// guard.Diagnostic dump of the wedged fabric (stuck queues, blocked
// masters, per-shard windows) — recoverable from any error chain via
// guard.AsViolation. Fault-free guarded runs are byte-identical to
// unguarded ones at every kernel and shard count, and the guarded hot
// paths stay allocation-free; guard.Default enables everything but the
// wall-clock budget. The watchdogs are themselves pinned by deterministic
// fault injection: a guard.FaultPlan (or seeded RandomPlan) wedges links,
// drops flits, freezes slaves, leaks packets or stalls shards inside cycle
// windows, and the guard test matrix proves each fault class trips its
// watchdog under every kernel and shard count. In sweeps, a violating
// point is recorded as a failed Result carrying the violation while the
// rest of the grid completes (tgsweep -on-violation record|fail).
//
// # Crash-safe campaigns
//
// A sweep can run journaled (SweepRunner.RunJournaled, tgsweep -journal;
// RunCurvesJournaled, whose points are the curves' axis levels): every
// completed point appends one fsync'd, CRC-framed record — stable point
// key, attempt count, outcome and the full serialized result — to a
// write-ahead journal, and a resumed campaign (SweepRunner.Resume, tgsweep
// -resume) skips completed points and re-serializes their stored results,
// so the final artifacts are byte-identical to an uninterrupted run at any
// kill point. A sweep point holds only result-determining configuration
// and its key is the hash of the whole point; the execution knobs
// (workers, kernel, shards, guard, retries) live on the runner, so
// campaigns resume across any change to them. A different grid is
// refused via the campaign key. Torn journal tails (the crash signature)
// truncate cleanly on resume; mid-file corruption is a hard error.
//
// A sweep.RetryPolicy (SweepRunner.Retry, tgsweep -retries/-retry-backoff)
// re-attempts transiently failed points — run budget, barrier stall, recovered worker panic — with
// exponential backoff on the same kernel and shard count, while
// deterministic failures (deadlock, conservation) quarantine immediately.
// SIGINT/SIGTERM drain gracefully
// on the CLIs: in-flight points finish, the journal flushes, and the
// process exits nonzero with a resume hint (sweep.ErrDrained in the API).
// All artifact writers go through an atomic temp-file+rename helper, so
// no crash leaves a partial output file.
package noctg
