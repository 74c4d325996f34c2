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
//	tgrepro -all [-kernel event|strict|skip]
//	        [-cpuprofile FILE] [-memprofile FILE]
//
// -workers, -kernel, the profile pair and the guard trio are the flag
// groups tgrepro shares with tgsweep (and the guard trio with nocsim)
// through internal/cliflags; -kernel picks the kernel of the reference and
// TG runs alike, and -table2 also times both on the strict kernel: its
// gain column is the selected kernel's, its gain strict column the
// paper's like-for-like comparison.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"noctg/internal/cliflags"
	"noctg/internal/drain"
	"noctg/internal/exp"
	"noctg/internal/sweep"
)

const tool cliflags.Tool = "tgrepro"

func main() {
	var (
		table2     = flag.Bool("table2", false, "regenerate Table 2 (ARM vs TG accuracy and speedup)")
		crosscheck = flag.Bool("crosscheck", false, "cross-interconnect .tgp equality (Section 6, exp. 1)")
		overhead   = flag.Bool("overhead", false, "trace-collection overhead (Section 6, exp. 2)")
		ablation   = flag.Bool("ablation", false, "generator-fidelity and arbitration ablations")
		fig2       = flag.Bool("fig2", false, "Figure 2 transaction-semantics and reactivity experiments")
		all        = flag.Bool("all", false, "run every experiment")
		sizesFlag  = flag.String("sizes", "default", "benchmark sizes: quick or default")
	)
	execs := cliflags.RegisterExec()
	profiles := cliflags.RegisterProfile()
	guards := cliflags.RegisterGuard("fail")
	flag.Parse()
	kernel, err := execs.Kernel()
	tool.Fail(err)
	gcfg, err := guards.Config()
	tool.Fail(err)
	tool.Fail(cliflags.OneOf("sizes", *sizesFlag, "quick", "default"))
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
	if execs.Workers() != 1 && (sel.Table2 || sel.Overhead) {
		fmt.Fprintln(os.Stderr, "tgrepro:", sweep.TimingCaveat)
	}
	opt := exp.DefaultOptions()
	opt.Platform.Kernel = kernel
	if gcfg != nil {
		opt.Guard = *gcfg
	}
	opt.Interrupted = drain.Arm("tgrepro")
	// Profiles are written on the success path only: tool.Fail exits the
	// process without running defers.
	defer profiles.Start(tool)()
	res, err := sweep.RunPaperSelect(sizes, opt, execs.Workers(), sel)
	if errors.Is(err, sweep.ErrDrained) {
		tool.Fail(errors.New("interrupted — unstarted experiments skipped; re-run to complete them"))
	}
	if guards.Check(tool, err) {
		return
	}
	sweep.FormatPaper(os.Stdout, res, sel)
}
