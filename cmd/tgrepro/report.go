package main

import (
	"fmt"
	"io"

	"noctg/internal/exp"
	"noctg/internal/sweep"
)

// timingCaveat is the warning printed when wall-clock experiment columns
// run under a parallel worker pool.
const timingCaveat = "note: wall-time columns (time ARM/TG, gain) contend for host cores under parallel execution; use -workers 1 for timing fidelity (simulated cycles are exact either way)"

// formatPaper renders the selected experiment families of one parallel
// paper run.
func formatPaper(w io.Writer, res *sweep.PaperResults, sel sweep.PaperSelect) {
	if sel.Table2 {
		fmt.Fprintln(w, "== Table 2: TG vs ARM performance with AMBA ==")
		fmt.Fprint(w, exp.FormatTable2(res.Table2))
		fmt.Fprintln(w)
	}
	if sel.CrossCheck {
		fmt.Fprintln(w, "== Cross-interconnect .tgp equality (AMBA vs xpipes) ==")
		for _, cc := range res.CrossChecks {
			verdict := "IDENTICAL"
			if !cc.Equal {
				verdict = "DIFFER: " + cc.FirstDiff
			}
			fmt.Fprintf(w, "%-10s %dP: AMBA %d cycles, xpipes %d cycles, programs %s (%d insts)\n",
				cc.Bench, cc.Cores, cc.MakespanA, cc.MakespanX, verdict, cc.ProgramLen)
		}
		fmt.Fprintln(w)
	}
	if sel.Overhead {
		fmt.Fprintln(w, "== Trace-collection overhead (MP matrix, 4 processors) ==")
		fmt.Fprintf(w, "plain run        : %v\n", res.Overhead.PlainWall)
		fmt.Fprintf(w, "with tracing     : %v\n", res.Overhead.TracedWall)
		fmt.Fprintf(w, "translation      : %v\n", res.Overhead.TranslateWall)
		fmt.Fprintf(w, "trace size       : %d bytes\n", res.Overhead.TraceBytes)
		fmt.Fprintln(w)
	}
	if sel.Ablation {
		fmt.Fprintln(w, "== Generator fidelity on a different interconnect (trace AMBA → replay xpipes) ==")
		for _, r := range res.Fidelity {
			if !r.Completed {
				fmt.Fprintf(w, "%-10s: DID NOT COMPLETE (ground truth %d cycles)\n", r.Kind, r.GroundTruth)
				continue
			}
			fmt.Fprintf(w, "%-10s: %d cycles vs ground truth %d (error %.2f%%)\n",
				r.Kind, r.Makespan, r.GroundTruth, r.ErrorPct)
		}
		fmt.Fprintln(w)
		fmt.Fprintln(w, "== Arbitration-policy ablation (MP matrix, 4 processors) ==")
		for _, r := range res.Arbitration {
			fmt.Fprintf(w, "%-15s: makespan %d cycles, worst master wait %d cycles\n",
				r.Policy, r.Makespan, r.MaxWait)
		}
		fmt.Fprintln(w)
	}
	if sel.Fig2 {
		fmt.Fprintln(w, "== Figure 2 ==")
		fmt.Fprintf(w, "fig2a: 4 posted writes %d cycles, 4 blocking reads %d cycles\n",
			res.Fig2a.WriteCycles, res.Fig2a.ReadCycles)
		fmt.Fprintf(w, "fig2b: same fabric %d cycles / %d failed polls, slow fabric %d cycles / %d failed polls\n",
			res.Fig2b.SameMakespan, res.Fig2b.SameFailedPolls, res.Fig2b.SlowMakespan, res.Fig2b.SlowFailedPolls)
	}
}
