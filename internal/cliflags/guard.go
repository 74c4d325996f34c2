package cliflags

import (
	"flag"
	"fmt"
	"time"

	"noctg/internal/guard"
)

// Guard holds the registered guard flag values.
type Guard struct {
	on     *bool
	budget *time.Duration
	onViol *string
}

// RegisterGuard adds -guard, -run-budget and -on-violation to the default
// flag set; defaultOnViolation is the tool's -on-violation default ("record"
// for a sweep whose grid continues past a failed point, "fail" for a single
// run). Call before flag.Parse.
func RegisterGuard(defaultOnViolation string) *Guard {
	return &Guard{
		on:     flag.Bool("guard", false, "arm the guard watchdogs (deadlock horizon, conservation scans, barrier-stall bound) on every simulation"),
		budget: flag.Duration("run-budget", 0, "wall-clock budget per simulation (implies -guard); an exceeded run fails with a run-budget violation"),
		onViol: flag.String("on-violation", defaultOnViolation, "guard violation handling: record (print diagnostics, exit 0) or fail (same output, exit 1)"),
	}
}

// Config validates the three flags and resolves them into a guard
// configuration (nil = unguarded). Call after flag.Parse and before
// OnViolation.
func (g *Guard) Config() (*guard.Config, error) {
	if *g.onViol != "record" && *g.onViol != "fail" {
		return nil, fmt.Errorf("-on-violation %q: want record or fail", *g.onViol)
	}
	if *g.budget < 0 {
		return nil, fmt.Errorf("-run-budget %v: want a non-negative duration", *g.budget)
	}
	if !*g.on && *g.budget == 0 {
		return nil, nil
	}
	c := guard.Default()
	c.RunBudget = *g.budget
	return &c, nil
}

// OnViolation returns the -on-violation mode, "record" or "fail" once
// Config has accepted it.
func (g *Guard) OnViolation() string { return *g.onViol }
