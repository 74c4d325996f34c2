// Sweep: the paper's motivating use case at fleet scale — a design-space
// grid (trace-driven TG and stochastic workloads × bus and mesh fabrics)
// fanned out over all host cores. Each stochastic point simulates on its
// own engine; a TG configuration simulates once and every seed shares its
// successful result.
//
// The result set is deterministic: rerun with any worker count and the
// JSON/CSV bytes are identical, so sweep artifacts can be diffed across
// machines and CI runs.
package main

import (
	"log"
	"os"
	"runtime"

	"noctg"
)

func main() {
	grid := noctg.SweepGrid{
		Workloads: []noctg.SweepWorkload{
			{Kind: "tg", Bench: "mpmatrix", Cores: 2, Size: 8},
			{Kind: "stochastic", Dist: "poisson", Cores: 2, MeanGap: 8, Count: 300},
		},
		Fabrics: []noctg.SweepFabric{
			{Interconnect: "amba"},
			{Interconnect: "amba", MemWaitStates: 4},
			{Interconnect: "xpipes", MeshWidth: 4, MeshHeight: 2, BufferFlits: 2},
			{Interconnect: "xpipes", MeshWidth: 4, MeshHeight: 2, BufferFlits: 8},
		},
		ClockPeriodsNS: []uint64{5, 10},
	}
	points := grid.Expand()
	log.Printf("sweeping %d configurations over %d cores", len(points), runtime.GOMAXPROCS(0))

	results, err := noctg.SweepRunner{}.Run(points)
	if err != nil {
		log.Fatal(err)
	}
	if err := noctg.WriteSweepCSV(os.Stdout, results); err != nil {
		log.Fatal(err)
	}
}
