package cliflags

import (
	"flag"
	"fmt"
	"os"
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
		budget: flag.Duration("run-budget", 0, "wall-clock budget per simulation; an exceeded run fails with a run-budget violation (alone it arms only this budget; with -guard, the full watchdog set too)"),
		onViol: flag.String("on-violation", defaultOnViolation, "guard violation handling: record (print diagnostics, exit 0) or fail (same output, exit 1)"),
	}
}

// Config validates the three flags and resolves them into a guard
// configuration (nil = unguarded). Call after flag.Parse and before
// OnViolation.
func (g *Guard) Config() (*guard.Config, error) {
	if err := OneOf("on-violation", *g.onViol, "record", "fail"); err != nil {
		return nil, err
	}
	if *g.budget < 0 {
		return nil, fmt.Errorf("-run-budget %v: want a non-negative duration", *g.budget)
	}
	if !*g.on {
		if *g.budget == 0 {
			return nil, nil
		}
		return &guard.Config{RunBudget: *g.budget}, nil
	}
	c := guard.Default()
	c.RunBudget = *g.budget
	return &c, nil
}

// OnViolation returns the -on-violation mode, "record" or "fail" once
// Config has accepted it.
func (g *Guard) OnViolation() string { return *g.onViol }

// Exit is every tool's one guard-violation exit, called once the run's
// output and diagnostics are out. A run that recorded violations exits 1
// under -on-violation fail; under record, or with none, Exit returns and
// the tool ends normally with exit 0.
func (g *Guard) Exit(t Tool, violations int) {
	if violations == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "%s: %d guard violation(s), -on-violation %s\n", t, violations, *g.onViol)
	if *g.onViol == "fail" {
		os.Exit(1)
	}
}

// Check routes the error of a single run: nil passes (false); a guard
// violation prints its diagnostic and goes through Exit (true: the run is
// over); any other error fails the tool.
func (g *Guard) Check(t Tool, err error) (violated bool) {
	if err == nil {
		return false
	}
	v, ok := guard.AsViolation(err)
	if !ok {
		t.Fail(err)
	}
	fmt.Fprintf(os.Stderr, "%s: %v\n", t, err)
	if v.Diag != nil {
		fmt.Fprintln(os.Stderr, v.Diag.Summary())
	}
	g.Exit(t, 1)
	return true
}
