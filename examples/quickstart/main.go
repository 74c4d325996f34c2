// Quickstart: the complete TG flow of the paper on one benchmark.
//
//  1. Run a bit- and cycle-true reference simulation (miniARM cores on the
//     AMBA bus) with trace collection enabled.
//  2. Translate the per-master .trc traces into TG programs (.tgp).
//  3. Replace the cores with TG devices and re-run.
//
// The TG platform reproduces the reference cycle count almost exactly while
// simulating several times faster — the paper's Table 2 result.
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	"noctg"
)

func main() {
	bench := noctg.MPMatrix(4, 16)
	opt := noctg.DefaultOptions()

	fmt.Println("== 1. reference simulation (cycle-true cores, traced) ==")
	ref, err := noctg.RunReference(bench, opt, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s on %d cores: %d cycles (%v wall)\n",
		bench.Name, bench.Cores, ref.Makespan, ref.Wall)
	for i, tr := range ref.Traces {
		fmt.Printf("  master %d: %d OCP events, span %d cycles\n", i, tr.Len(), tr.Span())
	}

	fmt.Println("\n== 2. translate traces into TG programs ==")
	progs, stats, twall, err := noctg.TranslateAll(bench, ref.Traces,
		noctg.DefaultTranslateConfig(noctg.PollRangesFor(bench)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d events -> %d programs in %v (%d poll loops, %d polls collapsed)\n",
		stats.Events, len(progs), twall, stats.PollLoops, stats.PollReadsCollapsed)

	// Show the start of master 1's program — the Figure 3(b) shape.
	var tgp strings.Builder
	if err := noctg.WriteTGP(progs[1], &tgp); err != nil {
		log.Fatal(err)
	}
	lines := strings.Split(tgp.String(), "\n")
	fmt.Println("\nmaster 1 program (first 18 lines):")
	for _, l := range lines[:18] {
		fmt.Println("  " + l)
	}

	fmt.Println("\n== 3. rerun with traffic generators in place of the cores ==")
	tg, err := noctg.RunTG(bench, progs, opt)
	if err != nil {
		log.Fatal(err)
	}
	errCycles := int64(tg.Makespan) - int64(ref.Makespan)
	fmt.Printf("TG platform: %d cycles (%v wall)\n", tg.Makespan, tg.Wall)
	fmt.Printf("cycle error: %+d (%.3f%%), simulation speedup: %.2fx\n",
		errCycles, 100*float64(abs(errCycles))/float64(ref.Makespan),
		float64(ref.Wall)/float64(tg.Wall))

	if abs(errCycles) > int64(ref.Makespan/50) {
		fmt.Fprintln(os.Stderr, "quickstart: unexpected accuracy loss")
		os.Exit(1)
	}
}

func abs(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
