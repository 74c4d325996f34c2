// Stochastic: quantifies the paper's Section 2 argument that statistical
// traffic models are unreliable for interconnect optimisation.
//
// Ground truth is a cycle-true run of the MP matrix benchmark. A
// trace-driven reactive TG and four stochastic generators (uniform,
// Gaussian, Poisson, bursty — calibrated to the same mean transaction rate
// as the real traffic) each predict the application's behaviour; the table
// compares their bus utilisation and runtime predictions.
package main

import (
	"fmt"
	"log"

	"noctg"
)

func main() {
	bench := noctg.MPMatrix(4, 16)
	opt := noctg.DefaultOptions()

	ref, err := noctg.RunReference(bench, opt, true)
	if err != nil {
		log.Fatal(err)
	}
	busyRef := float64(ref.Sys.Bus.BusyCycles()) / float64(ref.Sys.Engine.Cycle())
	var txns int
	for _, tr := range ref.Traces {
		txns += tr.Len()
	}
	fmt.Printf("ground truth: %d cycles, %.0f%% bus busy, %d transactions\n\n",
		ref.Makespan, 100*busyRef, txns)

	// The reactive TG.
	progs, _, _, err := noctg.TranslateAll(bench, ref.Traces,
		noctg.DefaultTranslateConfig(noctg.PollRangesFor(bench)))
	if err != nil {
		log.Fatal(err)
	}
	tg, err := noctg.RunTG(bench, progs, opt)
	if err != nil {
		log.Fatal(err)
	}
	busyTG := float64(tg.Sys.Bus.BusyCycles()) / float64(tg.Sys.Engine.Cycle())
	fmt.Printf("%-22s %12s %10s %12s\n", "model", "cycles", "bus busy", "cycle error")
	show := func(name string, makespan uint64, busy float64) {
		errPct := 100 * (float64(makespan) - float64(ref.Makespan)) / float64(ref.Makespan)
		fmt.Printf("%-22s %12d %9.0f%% %+11.1f%%\n", name, makespan, 100*busy, errPct)
	}
	show("reactive TG (trace)", tg.Makespan, busyTG)

	// Stochastic generators with the same mean rate and transaction count.
	perMaster := txns / bench.Cores
	meanGap := float64(ref.Makespan)/float64(perMaster) - 8 // minus service time
	if meanGap < 1 {
		meanGap = 1
	}
	for d := 0; d < 4; d++ {
		dist := noctg.StochasticConfig{
			Dist:    dist(d),
			MeanGap: meanGap,
			Count:   perMaster,
			Seed:    99,
			Ranges:  []noctg.AddrRange{noctg.SharedRange()},
		}
		cfg := noctg.PlatformConfig{Cores: bench.Cores}
		sys, err := noctg.Build(cfg, func(s *noctg.System, id int, port noctg.MasterPort) noctg.Master {
			return noctg.NewStochastic(id, dist, port)
		})
		if err != nil {
			log.Fatal(err)
		}
		makespan, err := sys.Run(bench.MaxCycles * 4)
		if err != nil {
			log.Fatal(err)
		}
		busy := float64(sys.Bus.BusyCycles()) / float64(sys.Engine.Cycle())
		show("stochastic "+dist.Dist.String(), makespan, busy)
	}
	fmt.Println("\nstatistical sources match the average rate but miss the reactive,")
	fmt.Println("bursty structure — their runtime and contention predictions drift,")
	fmt.Println("while the trace-driven reactive TG stays within a fraction of a percent.")
}

func dist(i int) noctg.Dist { return noctg.Dist(i) }
