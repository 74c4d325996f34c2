package valid

import (
	"testing"

	"noctg/internal/scenario"
	"noctg/internal/sweep"
)

// TestFromPoint drives the scenario-derived path of tgsweep -validate
// -scenario: which points derive a source, how many distinct sources a
// point list collapses to (points differing only by fabric share one),
// and what each source carries.
func TestFromPoint(t *testing.T) {
	library, err := scenario.Points(scenario.Library())
	if err != nil {
		t.Fatal(err)
	}
	if len(library) != 28 {
		t.Fatalf("the library expands to %d points, want 28", len(library))
	}
	point := func(w sweep.Workload) []sweep.Point {
		return []sweep.Point{{Workload: w, Fabric: sweep.Fabric{Interconnect: sweep.FabricAMBA}, ClockPeriodNS: 5, Seed: 1}}
	}
	cases := []struct {
		name    string
		points  []sweep.Point
		sources int // distinct derived sources
		check   func(t *testing.T, srcs []Source)
	}{
		{"library", library, 8, func(t *testing.T, srcs []Source) {
			rep := Validate(srcs, 2)
			for _, s := range rep.Sources {
				for _, c := range s.Checks {
					if !c.Pass {
						t.Errorf("%s: %s = %g outside [%g, %g]", s.Source, c.Name, c.Value, c.Low, c.High)
					}
				}
			}
			if !rep.Pass {
				t.Error("the library's derived sources fail validation")
			}
		}},
		{"tg", point(sweep.Workload{Kind: sweep.KindTG, Bench: "mpmatrix", Cores: 2, Size: 8}), 0, nil},
		{"gaussian", point(sweep.Workload{Kind: sweep.KindStochastic, Dist: "gaussian", MeanGap: 10, Cores: 2}), 0, nil},
		{"fractional uniform width", point(sweep.Workload{Kind: sweep.KindStochastic, Dist: "uniform", MeanGap: 1.25, Cores: 2}), 0, nil},
		{"two-state exponential mmpp", point(sweep.Workload{Kind: sweep.KindStochastic, Cores: 2,
			Arrival: &sweep.Arrival{Process: sweep.ProcessMMPP, Gaps: []float64{4, 0}, Dwells: []float64{200, 400}}}), 1,
			func(t *testing.T, srcs []Source) {
				s := srcs[0]
				if s.IDCWindow == 0 || !(0 < s.IDCLow && s.IDCLow < s.IDCHigh) {
					t.Errorf("IDC window %d, band [%g, %g]", s.IDCWindow, s.IDCLow, s.IDCHigh)
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var srcs []Source
			seen := map[string]bool{}
			for _, p := range tc.points {
				if s, ok := FromPoint(p); ok && !seen[s.Name] {
					seen[s.Name] = true
					srcs = append(srcs, s)
				}
			}
			if len(srcs) != tc.sources {
				t.Fatalf("%d points derive %d distinct sources, want %d", len(tc.points), len(srcs), tc.sources)
			}
			if tc.check != nil {
				tc.check(t, srcs)
			}
		})
	}
}
