// Command tgsweep runs a parallel experiment sweep: a parameter grid of
// workloads × fabrics × clock periods × seeds fans out over a bounded
// worker pool, and the per-run latency/throughput/flit metrics land in JSON
// and CSV artifacts whose bytes are identical for any -workers value. Each
// stochastic point simulates on its own engine; TG points share their
// results across seeds as internal/sweep's package doc says.
//
// Usage:
//
//	tgsweep [-workers N] [-grid FILE|default] [-out BASE|-] [-maxcycles N]
//	        [-kernel event|strict] [-shards N]
//	        [-journal FILE [-resume]] [-retries N [-retry-backoff D]]
//	        [-run-budget D] [-cpuprofile FILE] [-memprofile FILE]
//	tgsweep -scenario FILE|library # run declarative traffic scenarios
//	tgsweep -scenario FILE|library -curve [-curve-mode uniform|adaptive]
//	        [-journal FILE [-resume]] # load-latency curves per scenario
//	tgsweep -validate [-scenario FILE|library] [-workers N] [-out BASE|-] # fidelity report
//	tgsweep -print-scenarios       # dump the scenario library as a template
//	tgsweep -print-grid            # dump the default grid as a template
//
// With -scenario, the sweep points come from a declarative scenario file
// (internal/scenario JSON: fabric, topology, logical core grid, spatial
// traffic pattern, injection distribution, load/clock/seed axes) instead
// of a raw grid; "library" runs the stock pattern × topology evaluation
// set. The artifacts are the same deterministic JSON/CSV files. Scenario
// files may also declare the phased measurement methodology (warmup,
// epoch_cycles, epochs or ci_target, drain): points then discard the
// warmup transient and report steady-state epoch statistics under a
// "phases" key per result.
//
// With -curve (requires -scenario), each scenario's injection load is
// swept over its curve_gaps axis (or the stock ladder) and measured with
// the phased methodology at every level; the artifacts are load-latency
// curves with the detected saturation point per scenario.
//
// With -validate, no simulation sweep runs: instead each stochastic
// traffic source executes open-loop against the generator-validation
// harness (internal/valid) and the fidelity report — offered load vs. the
// analytic rate, inter-injection CDFs, index of dispersion, Hurst
// estimates — lands in <out>.json. The default suite is the
// stock source set; with -scenario, sources derive from the scenario
// file's stochastic workloads. A failed fidelity check exits nonzero.
// The harness pins every kernel to one cycle schedule, so -kernel and the
// sweep flags do not apply to -validate.
//
// A flag the selected mode never reads is refused (internal/cliflags).
// Grid and scenario files share one validator and one set of bounds: cores
// in [1, 112], count in [0, 10 000 000], a mean gap of 0 (the default) or
// in (0, 1e9], mesh sides and buffer_flits in [0, 64].
//
// The paper's own evaluation (Table 2, the cross-interconnect check, the
// overhead measurement, the ablations, Figure 2) is cmd/tgrepro's job.
//
// -kernel selects the simulation kernel: "event" (the default) ticks only
// the devices that are due each cycle and jumps the spans in which every
// device sleeps, and "strict" ticks every device every cycle. Both produce
// byte-identical artifacts; strict exists for cross-checking and for
// timing experiments that must not benefit from kernel tricks.
//
// -shards N > 1 runs every ×pipes simulation sharded across N engine
// goroutines (conservative time-window synchronisation, see internal/shard).
// It is a pure execution knob like -workers and -kernel: artifacts are
// byte-identical for every N, 0 and 1 (one engine) included — the
// execution-axis differentials pin this. AMBA points ignore the setting.
//
// -journal FILE makes the sweep crash-safe, and -resume finishes a
// journaled campaign with the artifacts of an uninterrupted run (the crash
// contract is internal/journal's package doc). With -curve, every load
// level is a journaled point.
// Under -journal, SIGINT/SIGTERM drain gracefully: in-flight points
// finish, the journal is flushed, and the process exits nonzero with a
// resume hint. Without -journal a signal stops the process at once.
//
// -retries N retries points whose failure classifies as transient (run
// budget, barrier stall, worker panic) up to N attempts with exponential
// -retry-backoff, every attempt on the configured -kernel and -shards;
// deterministic failures (deadlock, conservation) are quarantined
// immediately as failed points. -retry-backoff without -retries N (N ≥ 2)
// is refused. -run-budget bounds each attempt's wall clock; alone it arms
// only that budget, with -guard the full watchdog set too.
//
// -workers, -kernel, -cpuprofile/-memprofile and -guard/-run-budget/
// -on-violation are declared once, in internal/cliflags, and shared with
// tgrepro (the guard trio with nocsim too). A guard-violated point or
// curve level exits 1 under -on-violation fail, 0 under record (default).
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"noctg/internal/analytic"
	"noctg/internal/cliflags"
	"noctg/internal/drain"
	"noctg/internal/journal"
	"noctg/internal/scenario"
	"noctg/internal/sweep"
)

const tool cliflags.Tool = "tgsweep"

func main() {
	var (
		gridPath  = flag.String("grid", "default", "grid JSON file, or \"default\" for the stock 16-point sweep")
		scenPath  = flag.String("scenario", "", "scenario JSON file, or \"library\" for the stock pattern×topology set")
		out       = flag.String("out", "results", "output basename (<out>.json and <out>.csv), or \"-\" for JSON on stdout")
		maxCycles = flag.Uint64("maxcycles", 0, "override the per-run simulated-cycle budget")
		curveMode = flag.String("curve-mode", "", "curve traversal for every -curve scenario: uniform (simulate every level) or adaptive (seed from the analytic knee, simulate only around it); empty keeps each scenario's curve_mode")
		analyticF = flag.Bool("analytic", false, "analytic pre-pass: stochastic points the closed-form model brackets confidently are estimated instead of simulated (recorded with \"estimated\": true), and the predictions land in <out>.analytic.json")
		shards    = flag.Int("shards", 0, "shard every ×pipes simulation across N engine goroutines (0 or 1 = one engine); artifacts are byte-identical for every N")
		journalF  = flag.String("journal", "", "write-ahead journal file: every completed point is appended (fsync'd in background groups; a killed process loses none, an OS crash at most those since the last sync) so a crashed or interrupted sweep resumes with -resume")
		resume    = flag.Bool("resume", false, "resume the -journal file, skipping completed points (artifacts come out byte-identical to an uninterrupted run)")
		retries   = flag.Int("retries", 0, "max attempts per point: transient failures (run budget, barrier stall, worker panic) retry with backoff on the same -kernel and -shards (0/1 = no retries)")
		retryBack = flag.Duration("retry-backoff", 0, "base delay before a retry, doubling per attempt (requires -retries N >= 2)")
	)
	// The mode flags are read through table.Check.
	flag.Bool("print-grid", false, "print the default grid JSON and exit")
	flag.Bool("print-scenarios", false, "print the scenario library JSON and exit")
	flag.Bool("curve", false, "sweep injection load per scenario and emit load-latency curves (requires -scenario)")
	flag.Bool("validate", false, "run the generator-validation harness and write a fidelity report instead of sweeping (reads only -scenario, -workers and -out)")
	execs := cliflags.RegisterExec()
	profiles := cliflags.RegisterProfile()
	// A violated point is a failed point of the artifact and the grid
	// continues either way; -on-violation only picks the exit status.
	guards := cliflags.RegisterGuard("record")
	flag.Parse()
	m, err := table.Check(flag.CommandLine)
	tool.Fail(err)

	kernel, err := execs.Kernel()
	tool.Fail(err)
	tool.Fail(sweep.ValidateShards(*shards))
	gcfg, err := guards.Config()
	tool.Fail(err)
	rpol, err := retryPolicy(*retries, *retryBack)
	tool.Fail(err)
	if *curveMode != "" {
		tool.Fail(cliflags.OneOf("curve-mode", *curveMode, sweep.CurveModeUniform, sweep.CurveModeAdaptive))
	}
	r := sweep.Runner{Workers: execs.Workers(), MaxCycles: *maxCycles, Kernel: kernel,
		Shards: *shards, Guard: gcfg, Retry: rpol}

	// Profiles are written on the success path only: tool.Fail exits the
	// process without running defers.
	defer profiles.Start(tool)()

	jc := sweep.JournalConfig{Path: *journalF, Resume: *resume}
	if jc.Path != "" {
		r.Interrupted = drain.Arm("tgsweep")
	}

	var points []sweep.Point
	switch m {
	case "print-grid":
		g := sweep.DefaultGrid()
		pts := g.Expand()
		fmt.Fprintf(os.Stderr, "default grid: %d points\n", len(pts))
		tool.Fail(writeJSONIndent(os.Stdout, g))
		return
	case "print-scenarios":
		specs := scenario.Library()
		printPredictions(specs)
		tool.Fail(writeJSONIndent(os.Stdout, specs))
		return
	case "validate":
		runValidate(*scenPath, r.Workers, *out)
		return
	case "curve":
		guards.Exit(tool, runCurves(r, jc, loadScenarios(*scenPath), *curveMode, *out))
		return
	case "scenario":
		specs := loadScenarios(*scenPath)
		points, err = scenario.Points(specs)
		tool.Fail(err)
		fmt.Fprintf(os.Stderr, "tgsweep: %d scenarios\n", len(specs))
	default:
		grid := sweep.DefaultGrid()
		if *gridPath != "default" {
			f, err := os.Open(*gridPath)
			tool.Fail(err)
			grid, err = sweep.ParseGrid(f)
			f.Close()
			tool.Fail(err)
		}
		points = grid.Expand()
	}
	if *analyticF {
		marked := 0
		for i := range points {
			if points[i].Workload.Kind == sweep.KindStochastic {
				points[i].Analytic = true
				marked++
			}
		}
		fmt.Fprintf(os.Stderr, "tgsweep: analytic pre-pass armed on %d/%d points\n", marked, len(points))
	}
	fmt.Fprintf(os.Stderr, "tgsweep: %d configurations, %d workers\n", len(points), r.Workers)

	start := time.Now()
	var results []sweep.Result
	var status sweep.JournalStatus
	if jc.Path != "" {
		results, status, err = r.RunJournaled(points, jc)
	} else {
		results, err = r.Run(points)
	}
	reportRun(jc, status, err, "")
	wall := time.Since(start)

	failed, violated := 0, 0
	for _, r := range results {
		if r.Err != "" {
			failed++
			fmt.Fprintf(os.Stderr, "tgsweep: point %d (%s @ %s): %s\n", r.ID, r.Workload, r.Fabric, r.Err)
		}
		if r.Violation != nil {
			violated++
			if r.Violation.Diag != nil {
				fmt.Fprintln(os.Stderr, "  "+r.Violation.Diag.Summary())
			}
		}
	}
	fmt.Fprintf(os.Stderr, "tgsweep: %d/%d points ok in %v\n", len(results)-failed, len(results), wall.Round(time.Millisecond))
	if *analyticF {
		estimated := 0
		for _, r := range results {
			if r.Estimated {
				estimated++
			}
		}
		fmt.Fprintf(os.Stderr, "tgsweep: analytic pre-pass estimated %d/%d points (simulated %d)\n",
			estimated, len(results), len(results)-estimated)
	}

	if *out == "-" {
		tool.Fail(sweep.WriteJSON(os.Stdout, results))
	} else {
		tool.Fail(sweep.WriteArtifacts(*out, results))
		fmt.Fprintf(os.Stderr, "tgsweep: wrote %s.json and %s.csv\n", *out, *out)
		if *analyticF {
			rep := sweep.AnalyticReport(points)
			var buf bytes.Buffer
			tool.Fail(rep.WriteJSON(&buf))
			tool.Fail(journal.AtomicWrite(*out+".analytic.json", buf.Bytes()))
			fmt.Fprintf(os.Stderr, "tgsweep: wrote %s.analytic.json (%d predictions)\n", *out, len(rep.Entries))
		}
	}
	// Artifacts are on disk by now: a failing sweep still leaves its
	// (deterministic) partial results behind.
	guards.Exit(tool, violated)
}

// table maps each flag to the modes that read it (internal/cliflags).
var table = cliflags.Table{
	Modes:   []string{"print-grid", "print-scenarios", "validate", "curve", "scenario"},
	Default: "grid",
	Reads: map[string][]string{
		"grid": {"grid"}, "analytic": {"grid", "scenario"}, "scenario": {"curve", "scenario", "validate"},
		"curve": {"curve"}, "curve-mode": {"curve"}, "validate": {"validate"},
		"print-grid": {"print-grid"}, "print-scenarios": {"print-scenarios"},
		"out": {"curve", "grid", "scenario", "validate"}, "workers": {"curve", "grid", "scenario", "validate"},
		"maxcycles": sims, "shards": sims, "kernel": sims, "journal": sims, "resume": sims,
		"retries": sims, "retry-backoff": sims, "guard": sims, "run-budget": sims, "on-violation": sims,
		"cpuprofile": cliflags.All, "memprofile": cliflags.All,
	},
	Needs: map[string]string{"resume": "journal", "curve": "scenario", "curve-mode": "curve"},
}

// sims are the simulating modes.
var sims = []string{"curve", "grid", "scenario"}

// loadScenarios reads the -scenario file, or the stock library for
// "library".
func loadScenarios(path string) []scenario.Spec {
	if path == "library" {
		return scenario.Library()
	}
	f, err := os.Open(path)
	tool.Fail(err)
	defer f.Close()
	specs, err := scenario.Parse(f)
	tool.Fail(err)
	return specs
}

// printPredictions renders the closed-form prediction per scenario — the
// zero-load latency and saturation knee, no simulation — as a table on
// stderr, leaving stdout pure JSON for piping. The rows are the -analytic
// report's entries: each scenario's first point, its lightest configured
// load.
func printPredictions(specs []scenario.Spec) {
	pts, err := scenario.Points(specs)
	if err != nil {
		return
	}
	tw := tabwriter.NewWriter(os.Stderr, 2, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "scenario\tzero-load lat\tknee gap\tknee offered\tsat ceiling\n")
	fmt.Fprintf(tw, "\t(cycles)\t(cycles)\t(txn/kcycle)\t(txn/kcycle)\n")
	for _, en := range sweep.AnalyticReport(pts).Entries {
		est, err := analytic.New(en.Spec)
		if en.Err != "" || err != nil {
			fmt.Fprintf(tw, "%s\t-\t-\t-\t-\n", en.Label)
			continue
		}
		// The continuous knee: resource saturation when the bottleneck
		// fills first, the marginal-throughput knee when the closed-loop
		// population self-limits before any resource does.
		kg := sweep.PredictedKneeGap(est)
		offered := float64(en.Spec.Traffic.Masters) * 1000 / (kg + 1)
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%.1f\t%.1f\n", en.Label, en.Estimate.ZeroLoadLatency, kg, offered, en.Estimate.SatThroughputTPK)
	}
	tw.Flush()
}

// retryPolicy resolves the -retries/-retry-backoff flags into a runner
// retry policy (nil = single attempt). A backoff without a second attempt
// to delay is refused rather than ignored.
func retryPolicy(retries int, backoff time.Duration) (*sweep.RetryPolicy, error) {
	if backoff != 0 && retries < 2 {
		return nil, errors.New("-retry-backoff requires -retries N >= 2")
	}
	if retries == 0 {
		return nil, nil
	}
	p := &sweep.RetryPolicy{
		MaxAttempts: retries,
		BackoffMS:   int(backoff / time.Millisecond),
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// reportRun exits on a run's error — a drained journaled run, its pending
// count prefixed by bound, with the resume hint — and reports its journal.
func reportRun(jc sweep.JournalConfig, status sweep.JournalStatus, err error, bound string) {
	if status.Torn {
		fmt.Fprintf(os.Stderr, "tgsweep: journal had a torn tail (crash signature); truncated and resumed\n")
	}
	if errors.Is(err, sweep.ErrDrained) {
		fmt.Fprintf(os.Stderr, "tgsweep: interrupted: %d resumed, %d ran, %s%d pending\n",
			status.Resumed, status.Ran, bound, status.Skipped)
		tool.Fail(fmt.Errorf("journal flushed; continue with: tgsweep -journal %s -resume ...", jc.Path))
	}
	tool.Fail(err)
	if status.Resumed > 0 {
		fmt.Fprintf(os.Stderr, "tgsweep: resumed %d completed points from %s, ran %d\n",
			status.Resumed, jc.Path, status.Ran)
	}
}

// runCurves sweeps each scenario's injection load through r — under the
// journal when jc names one — and writes load-latency curve artifacts
// (<out>.json / <out>.csv, or JSON on stdout with "-"). It returns the
// number of guard-violated levels.
func runCurves(r sweep.Runner, jc sweep.JournalConfig, specs []scenario.Spec, mode string, out string) (violated int) {
	css, err := scenario.Curves(specs)
	tool.Fail(err)
	if skipped := len(specs) - len(css); skipped > 0 {
		fmt.Fprintf(os.Stderr, "tgsweep: %d arrival-process scenarios have no load axis to curve; skipped\n", skipped)
	}
	if mode != "" {
		for i := range css {
			css[i].Mode = mode
		}
	}
	levels := 0
	for _, cs := range css {
		levels += len(cs.Gaps)
		if len(cs.Gaps) == 0 {
			levels += len(sweep.DefaultCurveGaps)
		}
	}
	fmt.Fprintf(os.Stderr, "tgsweep: %d curves (%d load levels), %d workers\n", len(css), levels, r.Workers)
	start := time.Now()
	var curves []sweep.Curve
	var status sweep.JournalStatus
	if jc.Path != "" {
		curves, status, err = r.RunCurvesJournaled(css, jc)
	} else {
		curves, err = r.RunCurves(css)
	}
	reportRun(jc, status, err, "at least ") // later rounds are not known yet
	sat := 0
	for _, c := range curves {
		if c.Saturation != nil {
			sat++
			fmt.Fprintf(os.Stderr, "tgsweep: %s saturates at gap %g (%.1f txn/kcycle)\n",
				c.Name, c.Saturation.MeanGap, c.Saturation.ThroughputTPK)
		} else {
			fmt.Fprintf(os.Stderr, "tgsweep: %s shows no saturation on its load axis\n", c.Name)
		}
		if c.Mode == sweep.CurveModeAdaptive {
			fmt.Fprintf(os.Stderr, "tgsweep: %s adaptive: %d levels simulated, %d estimated\n",
				c.Name, c.SimulatedLevels, c.EstimatedLevels)
		}
	}
	fmt.Fprintf(os.Stderr, "tgsweep: %d/%d curves saturated in %v\n", sat, len(curves), time.Since(start).Round(time.Millisecond))
	if out == "-" {
		tool.Fail(sweep.WriteCurvesJSON(os.Stdout, curves))
	} else {
		tool.Fail(sweep.WriteCurveArtifacts(out, curves))
		fmt.Fprintf(os.Stderr, "tgsweep: wrote %s.json and %s.csv\n", out, out)
	}
	return curveViolations(curves)
}

// curveViolations counts the curve levels that carry a Violation — a
// watchdog violation or a recovered worker panic — exactly as the grid
// path counts Result.Violation.
func curveViolations(curves []sweep.Curve) (n int) {
	for _, c := range curves {
		for _, p := range c.Points {
			if p.Violation != nil {
				n++
			}
		}
	}
	return n
}

func writeJSONIndent(f *os.File, v any) error {
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
