package sweep

// The fixed grids behind the golden artifacts and the measure digest. They
// are test fixtures: no run description outside the tests names them.

import "noctg/internal/stochastic"

// ScenarioGrid is the spatial-pattern × topology scenario sweep: every
// spatial pattern on a 2×2 logical core grid (square and power-of-two, so
// transpose and the bit patterns are all legal), crossed with the AMBA
// bus, a ×pipes mesh and a ×pipes torus. It is the grid the scenario
// differential test and the golden-file harness lock down.
func ScenarioGrid() Grid {
	// The workload set iterates the stochastic Pattern enum, so a newly
	// added pattern automatically joins the differential and golden-file
	// corpus (the goldens then need a deliberate -update).
	var ws []Workload
	for pat := stochastic.UniformRandom; pat <= stochastic.NearestNeighbor; pat++ {
		w := Workload{
			Kind:     KindStochastic,
			Dist:     "poisson",
			Cores:    4,
			Pattern:  pat.String(),
			PatternW: 2, PatternH: 2,
			MeanGap: 6,
			Count:   300,
		}
		if pat == stochastic.Hotspot {
			w.Hotspot = []float64{0, 0, 0.6}
		}
		ws = append(ws, w)
	}
	return Grid{
		Workloads: ws,
		Fabrics: []Fabric{
			{Interconnect: FabricAMBA},
			{Interconnect: FabricXPipes, MeshWidth: 4, MeshHeight: 3},
			{Interconnect: FabricXPipes, Topology: "torus", MeshWidth: 4, MeshHeight: 3},
		},
	}
}

// BurstyGrid is the stock bursty/self-similar scenario sweep: an on/off
// MMPP hotspot, a deterministic-dwell two-rate MMPP, a self-similar
// uniform-random workload and a Poisson transpose baseline, on the AMBA
// bus and a ×pipes mesh. Like ScenarioGrid it is
// pinned by the kernel-differential matrix and a golden artifact
// (testdata/golden/bursty.json).
func BurstyGrid() Grid {
	return Grid{
		Workloads: []Workload{
			{Kind: KindStochastic, Cores: 4, Count: 300,
				Pattern: "hotspot", PatternW: 2, PatternH: 2,
				Hotspot: []float64{0, 0, 0.6},
				Arrival: &Arrival{Process: ProcessMMPP,
					Gaps: []float64{3, 0}, Dwells: []float64{80, 160}}},
			{Kind: KindStochastic, Cores: 4, Count: 300,
				Pattern: "uniform", PatternW: 2, PatternH: 2,
				Arrival: &Arrival{Process: ProcessMMPP,
					Gaps: []float64{4, 16}, Dwells: []float64{100, 200},
					DwellDist: DwellDet}},
			{Kind: KindStochastic, Cores: 4, Count: 300,
				Pattern: "uniform", PatternW: 2, PatternH: 2,
				Arrival: &Arrival{Process: ProcessSelfSimilar,
					Sources: 8, Hurst: 0.8, OnMean: 50, OffMean: 100, PeakGap: 4}},
			{Kind: KindStochastic, Cores: 4, Count: 300,
				Pattern: "transpose", PatternW: 2, PatternH: 2,
				Dist: "poisson", MeanGap: 6},
		},
		Fabrics: []Fabric{
			{Interconnect: FabricAMBA},
			{Interconnect: FabricXPipes, MeshWidth: 4, MeshHeight: 3},
		},
	}
}
