package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"time"

	"noctg/internal/journal"
	"noctg/internal/scenario"
	"noctg/internal/valid"
)

// runValidate executes the generator-validation harness: the stock
// fidelity suite by default, or sources derived from a scenario file's
// stochastic workloads with -scenario. The report lands in <out>.json (or
// on stdout with "-"); any failed fidelity check exits nonzero. It reads
// no other flag: the always-awake capture clock pins every kernel to the
// same schedule, so the report has no kernel to choose.
func runValidate(scenPath string, workers int, out string) {
	sources := valid.StockSources()
	if scenPath != "" {
		pts, err := scenario.Points(loadScenarios(scenPath))
		tool.Fail(err)
		sources = sources[:0]
		seen := map[string]bool{}
		skipped := 0
		for _, p := range pts {
			s, ok := valid.FromPoint(p)
			if !ok {
				skipped++
				continue
			}
			if seen[s.Name] {
				continue // same workload on another fabric: same open-loop source
			}
			seen[s.Name] = true
			sources = append(sources, s)
		}
		if skipped > 0 {
			fmt.Fprintf(os.Stderr, "tgsweep: %d points have no analytic spec, skipped\n", skipped)
		}
		if len(sources) == 0 {
			tool.Fail(fmt.Errorf("no validatable stochastic workloads in %s", scenPath))
		}
	}

	fmt.Fprintf(os.Stderr, "tgsweep: validating %d sources, %d workers\n", len(sources), workers)
	start := time.Now()
	rep := valid.Validate(sources, workers)
	checks := 0
	for _, s := range rep.Sources {
		checks += len(s.Checks)
		for _, c := range s.Checks {
			if !c.Pass {
				fmt.Fprintf(os.Stderr, "tgsweep: FAIL %s %s: %g outside [%g, %g]\n",
					s.Source, c.Name, c.Value, c.Low, c.High)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "tgsweep: %d fidelity checks in %v\n",
		checks, time.Since(start).Round(time.Millisecond))

	if out == "-" {
		tool.Fail(rep.WriteJSON(os.Stdout))
	} else {
		var buf bytes.Buffer
		tool.Fail(rep.WriteJSON(&buf))
		tool.Fail(journal.AtomicWrite(out+".json", buf.Bytes()))
		fmt.Fprintf(os.Stderr, "tgsweep: wrote %s.json\n", out)
	}
	if !rep.Pass {
		tool.Fail(errors.New("generator validation FAILED"))
	}
}
