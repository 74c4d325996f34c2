// Command tgrepro regenerates the paper's evaluation: Table 2 (accuracy and
// speedup of TG-based simulation), the cross-interconnect .tgp equality
// check, the trace-collection overhead experiment, the baseline/design
// ablations, and the Figure 2 experiments. The selected experiment families
// fan out over the sweep runner's worker pool, so the whole evaluation is
// one parallel invocation.
//
// Usage:
//
//	tgrepro -table2 [-sizes quick|default] [-workers N]
//	tgrepro -crosscheck
//	tgrepro -overhead
//	tgrepro -ablation
//	tgrepro -fig2
//	tgrepro -all [-kernel auto|strict|skip|event]
//	        [-cpuprofile FILE] [-memprofile FILE]
//
// -cpuprofile/-memprofile write pprof profiles of the evaluation (shared
// flag wiring with tgsweep via internal/cliflags), so performance work
// needs no code edits.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"noctg/internal/cliflags"
	"noctg/internal/drain"
	"noctg/internal/exp"
	"noctg/internal/guard"
	"noctg/internal/platform"
	"noctg/internal/sweep"
)

func main() {
	var (
		table2     = flag.Bool("table2", false, "regenerate Table 2 (ARM vs TG accuracy and speedup)")
		crosscheck = flag.Bool("crosscheck", false, "cross-interconnect .tgp equality (Section 6, exp. 1)")
		overhead   = flag.Bool("overhead", false, "trace-collection overhead (Section 6, exp. 2)")
		ablation   = flag.Bool("ablation", false, "generator-fidelity and arbitration ablations")
		fig2       = flag.Bool("fig2", false, "Figure 2 transaction-semantics and reactivity experiments")
		all        = flag.Bool("all", false, "run every experiment")
		sizesFlag  = flag.String("sizes", "default", "benchmark sizes: quick or default")
		workers    = flag.Int("workers", 0, "worker pool size (0 = all host cores)")
		kernelFlag = flag.String("kernel", "auto", "TG-replay simulation kernel: auto (event), strict, skip or event; ARM reference runs always tick strictly")
	)
	profiles := cliflags.RegisterProfile()
	guards := cliflags.RegisterGuard("fail")
	flag.Parse()
	kernel, err := platform.ParseKernel(*kernelFlag)
	fail(err)
	gcfg, err := guards.Config()
	fail(err)
	sel := sweep.PaperSelect{
		Table2:     *table2 || *all,
		CrossCheck: *crosscheck || *all,
		Overhead:   *overhead || *all,
		Ablation:   *ablation || *all,
		Fig2:       *fig2 || *all,
	}
	if sel == (sweep.PaperSelect{}) {
		flag.Usage()
		os.Exit(2)
	}

	sizes := exp.DefaultSizes()
	if *sizesFlag == "quick" {
		sizes = exp.QuickSizes()
	}
	if *workers != 1 && (sel.Table2 || sel.Overhead) {
		fmt.Fprintln(os.Stderr, "tgrepro:", sweep.TimingCaveat)
	}
	opt := exp.DefaultOptions()
	opt.Platform.Kernel = kernel
	if gcfg != nil {
		opt.Guard = *gcfg
	}
	opt.Interrupted = drain.Arm("tgrepro")
	// Profiles are written on the success path only: fail() exits the
	// process without running defers.
	defer profiles.MustStart("tgrepro")()
	res, err := sweep.RunPaperSelect(sizes, opt, *workers, sel)
	if errors.Is(err, sweep.ErrDrained) {
		fmt.Fprintln(os.Stderr, "tgrepro: interrupted — unstarted experiments skipped; re-run to complete them")
		os.Exit(1)
	}
	if v, ok := guard.AsViolation(err); ok {
		fmt.Fprintln(os.Stderr, "tgrepro:", err)
		if v.Diag != nil {
			fmt.Fprintln(os.Stderr, v.Diag.Summary())
		}
		if guards.OnViolation() == "fail" {
			os.Exit(1)
		}
		return
	}
	fail(err)
	sweep.FormatPaper(os.Stdout, res, sel)
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tgrepro:", err)
		os.Exit(1)
	}
}
