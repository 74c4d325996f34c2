package main

import (
	"errors"
	"os/exec"
	"strings"
	"testing"
	"time"

	"noctg/internal/guard"
	"noctg/internal/sweep"
)

// TestCurveViolationsFailTheRun: a curve level that failed with a guard
// violation — a recovered worker panic or a watchdog — must count toward
// -on-violation fail, exactly as the same failure on a grid point does.
// The count used to match Err strings prefixed "guard:", which neither a
// "panic: ..." level nor a watchdog's "platform(<fabric>): guard: ..."
// level has, so a violated curve campaign always exited 0.
func TestCurveViolationsFailTheRun(t *testing.T) {
	watchdog := &guard.Violation{Kind: guard.KindBudget, Cycle: 8, Shard: -1, Msg: "wall-clock budget exceeded"}
	levels := []sweep.CurvePoint{
		{MeanGap: 24},
		{MeanGap: 12, Err: "panic: injected curve panic",
			Violation: &guard.Violation{Kind: guard.KindPanic, Shard: -1, Msg: "curve c gap 12: injected curve panic"}},
		{MeanGap: 6, Err: "platform(amba): " + watchdog.Error(), Violation: watchdog},
	}
	if got := curveViolations([]sweep.Curve{{Name: "c", Points: levels}}); got != 2 {
		t.Errorf("hand-built curve: curveViolations = %d, want 2 (the panic and the watchdog level)", got)
	}

	// End to end: a nanosecond run budget fails every level of a real run.
	spec := sweep.CurveSpec{
		Name: "hotspot-amba",
		Workload: sweep.Workload{Kind: sweep.KindStochastic, Dist: "poisson", Cores: 4,
			Pattern: "hotspot", PatternW: 2, PatternH: 2, Hotspot: []float64{0, 0, 0.6}},
		Fabric:  sweep.Fabric{Interconnect: sweep.FabricAMBA},
		Gaps:    []float64{24, 6},
		Measure: sweep.Measure{WarmupCycles: 1000, EpochCycles: 2000, CITarget: 0.05},
	}
	budget := guard.Default()
	budget.RunBudget = time.Nanosecond
	curves, err := sweep.Runner{Guard: &budget}.RunCurves([]sweep.CurveSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range curves[0].Points {
		if !strings.HasPrefix(p.Err, "platform(amba): guard: ") {
			t.Fatalf("watchdog: gap %g failed with %q, want a guard error", p.MeanGap, p.Err)
		}
	}
	if got, want := curveViolations(curves), len(spec.Gaps); got != want {
		t.Errorf("watchdog: curveViolations = %d, want %d (one per failed level)", got, want)
	}
}

// TestEnumFlagsRejectUnknownValues drives the built tgsweep: an unknown
// value of an enum flag — including the removed -kernel auto — or a flag
// the selected mode never reads must exit 1 with an error naming it,
// before any simulation starts, never fall back to a different experiment.
// That the flag table covers every flag tgsweep declares is table.Check's
// own precondition, so every run here holds it.
func TestEnumFlagsRejectUnknownValues(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool")
	}
	bin := buildTool(t, "tgsweep")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-kernel", "auto"}, `unknown kernel "auto"`},
		{[]string{"-scenario", "library", "-curve", "-curve-mode", "fast"}, `-curve-mode "fast": want uniform or adaptive`},
		// Flags a mode never reads are refused, not silently ignored.
		{[]string{"-scenario", "library", "-curve-mode", "adaptive"}, `-curve-mode requires -curve`},
		// An empty -grid is still the grid mode and refuses the same flags.
		{[]string{"-grid=", "-curve-mode", "adaptive"}, `-curve-mode requires -curve`},
		{[]string{"-grid=", "-resume"}, `-resume requires -journal`},
		{[]string{"-scenario", "library", "-curve", "-analytic"}, `-analytic applies to grid/scenario runs, not -curve`},
		{[]string{"-retry-backoff", "1s"}, `-retry-backoff requires -retries N >= 2`},
		{[]string{"-resume"}, `-resume requires -journal`},
		{[]string{"-curve"}, `-curve requires -scenario`},
		{[]string{"-scenario", "library", "-grid", "g.json"}, `-grid applies to grid runs, not -scenario`},
		{[]string{"-validate", "-journal", "v.journal"}, `-journal applies to curve/grid/scenario runs, not -validate`},
		{[]string{"-validate", "-scenario", "library", "-curve"}, `-curve applies to curve runs, not -validate`},
		{[]string{"-validate", "-analytic"}, `-analytic applies to grid/scenario runs, not -validate`},
		{[]string{"-validate", "-shards", "2"}, `-shards applies to curve/grid/scenario runs, not -validate`},
		{[]string{"-print-grid", "-scenario", "library"}, `-scenario applies to curve/scenario/validate runs, not -print-grid`},
	} {
		out, err := runTool(t, bin, tc.args...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("tgsweep %v: %v, want exit status 1\n%s", tc.args, err, out)
			continue
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("tgsweep %v: output %q does not name the value (want %q)", tc.args, out, tc.want)
		}
	}
}
