package sweep

import (
	"path/filepath"
	"testing"

	"noctg/internal/exp"
	"noctg/internal/simtest"
)

// The golden rows hold every deterministic experiment artifact byte for
// byte to its file under testdata/golden/ (TestArtifacts, in
// measure_digest_test.go, runs them).

// ExecRunner and RenderResults serve the package's external tests.
var ExecRunner, RenderResults = execRunner, renderResults

// goldenPath is the stored file of golden row name.
func goldenPath(name string) string { return filepath.Join("testdata", "golden", name+".json") }

func golden(name string, produce func(t *testing.T) []byte) simtest.Artifact {
	return simtest.Artifact{Name: name, Path: goldenPath(name), Produce: produce}
}

// paperGolden runs one paper experiment family on the tiny benchmark sizes
// and renders the part of its results that project selects.
func paperGolden(name string, sel PaperSelect, project func(*PaperResults) any) simtest.Artifact {
	return golden(name, func(t *testing.T) []byte {
		res, err := RunPaperSelect(tinySizes(), exp.DefaultOptions(), 0, sel)
		if err != nil {
			t.Fatal(err)
		}
		return simtest.JSON(t, project(res))
	})
}

// GoldenArtifacts are the package's golden rows, for TestArtifacts. The
// differentials of the scenario grid, the bursty grid and the curve pin
// their reference rows to the same files.
func GoldenArtifacts() []simtest.Artifact {
	return []simtest.Artifact{
		paperGolden("table2", PaperSelect{Table2: true}, func(r *PaperResults) any { return table2Rows(r.Table2) }),
		// Every field of the cross-interconnect .tgp equality result is
		// simulation-derived.
		paperGolden("crosscheck", PaperSelect{CrossCheck: true}, func(r *PaperResults) any { return r.CrossChecks }),
		paperGolden("fig2", PaperSelect{Fig2: true}, func(r *PaperResults) any {
			return struct {
				Fig2a *exp.Fig2aResult `json:"fig2a"`
				Fig2b *exp.Fig2bResult `json:"fig2b"`
			}{r.Fig2a, r.Fig2b}
		}),
		// Every spatial pattern on AMBA, mesh and torus.
		golden("scenarios", func(t *testing.T) []byte {
			return renderResults(t, runPoints(t, Runner{}, ScenarioGrid().Expand()))
		}),
		// The arrival-process state machines and their discretization.
		golden("bursty", func(t *testing.T) []byte {
			results := runPoints(t, Runner{}, BurstyGrid().Expand())
			for _, r := range results {
				if r.Transactions == 0 {
					t.Fatalf("point %d (%s) completed no transactions", r.ID, r.Workload)
				}
			}
			return renderResults(t, results)
		}),
		golden("curve", func(t *testing.T) []byte {
			c := runCurve(t, Runner{}, goldenCurveSpec())
			for _, p := range c.Points {
				if p.Err != "" {
					t.Fatalf("gap %g: %s", p.MeanGap, p.Err)
				}
			}
			if c.Saturation == nil {
				t.Fatal("golden curve must detect a saturation point")
			}
			return simtest.JSON(t, []Curve{c})
		}),
	}
}

// goldenRow is the deterministic projection of a Table 2 row: simulated
// cycles, accuracy and trace size, but no host wall-clock fields.
type goldenRow struct {
	Bench      string  `json:"bench"`
	Cores      int     `json:"cores"`
	CyclesARM  uint64  `json:"cycles_arm"`
	CyclesTG   uint64  `json:"cycles_tg"`
	ErrorPct   float64 `json:"error_pct"`
	TraceBytes int     `json:"trace_bytes"`
}

// table2Rows projects Table 2 onto its deterministic fields.
func table2Rows(table2 []*exp.Row) []goldenRow {
	rows := make([]goldenRow, len(table2))
	for i, r := range table2 {
		rows[i] = goldenRow{
			Bench:      r.Bench,
			Cores:      r.Cores,
			CyclesARM:  r.CyclesARM,
			CyclesTG:   r.CyclesTG,
			ErrorPct:   r.ErrorPct,
			TraceBytes: r.TraceBytes,
		}
	}
	return rows
}
