package scenario

import (
	"fmt"

	"noctg/internal/sweep"
)

// Library returns the stock scenario set: every spatial pattern on a 2×2
// logical core grid (square and power-of-two, so all six patterns are
// legal) crossed with a ×pipes mesh and a ×pipes torus, plus an AMBA
// hotspot reference. The set is small enough to regenerate in seconds yet
// spans the full pattern × topology space, which makes it the corpus the
// golden-file harness and the scenario differential test lock down.
func Library() []Spec {
	patterns := []struct {
		pattern string
		hotspot []float64
	}{
		{pattern: "uniform"},
		{pattern: "transpose"},
		{pattern: "bitcomp"},
		{pattern: "bitrev"},
		{pattern: "hotspot", hotspot: []float64{0, 0, 0.6}},
		{pattern: "neighbor"},
	}
	var specs []Spec
	for _, topo := range []string{"mesh", "torus"} {
		for _, p := range patterns {
			specs = append(specs, Spec{
				Name:     fmt.Sprintf("%s-%s", p.pattern, topo),
				Fabric:   "xpipes",
				Topology: topo,
				Width:    2, Height: 2,
				MeshWidth: 4, MeshHeight: 3,
				Pattern: p.pattern,
				Hotspot: p.hotspot,
				Dist:    "poisson",
				// Two loads: a sparse one and one near saturation.
				MeanGaps: []float64{12, 4},
				Count:    300,
			})
		}
	}
	specs = append(specs, Spec{
		Name:   "hotspot-amba",
		Fabric: "amba",
		Width:  2, Height: 2,
		Pattern:  "hotspot",
		Hotspot:  []float64{0, 0, 0.6},
		Dist:     "poisson",
		MeanGaps: []float64{12, 4},
		Count:    300,
	})
	// The arrival-process band: an on/off MMPP burst aimed at a hotspot,
	// a self-similar uniform-random load, and a priority-tagged Poisson
	// load. Arrival scenarios carry no mean-gap axis (one point each);
	// the priority scenario keeps the classic two-load axis.
	specs = append(specs,
		Spec{
			Name:   "bursty-hotspot-mesh",
			Fabric: "xpipes",
			Width:  2, Height: 2,
			MeshWidth: 4, MeshHeight: 3,
			Pattern: "hotspot",
			Hotspot: []float64{0, 0, 0.6},
			Arrival: &sweep.Arrival{Process: sweep.ProcessMMPP,
				Gaps: []float64{3, 0}, Dwells: []float64{80, 160}},
			Count: 300,
		},
		Spec{
			Name:   "selfsim-uniform-mesh",
			Fabric: "xpipes",
			Width:  2, Height: 2,
			MeshWidth: 4, MeshHeight: 3,
			Pattern: "uniform",
			Arrival: &sweep.Arrival{Process: sweep.ProcessSelfSimilar,
				Sources: 8, Hurst: 0.8, OnMean: 50, OffMean: 100, PeakGap: 4},
			Count: 300,
		},
		Spec{
			Name:   "priority-transpose-mesh",
			Fabric: "xpipes",
			Width:  2, Height: 2,
			MeshWidth: 4, MeshHeight: 3,
			Pattern:  "transpose",
			Dist:     "poisson",
			Classes:  []float64{0.5, 0.3, 0.2},
			MeanGaps: []float64{12, 4},
			Count:    300,
		},
	)
	return specs
}
