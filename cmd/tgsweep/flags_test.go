package main

import (
	"errors"
	"os/exec"
	"regexp"
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
	for name, r := range map[string]sweep.Runner{
		"panic":    {Faults: func(sweep.Point) *guard.FaultPlan { panic("injected curve panic") }},
		"watchdog": {Guard: &budget},
	} {
		curves, err := r.RunCurves([]sweep.CurveSpec{spec})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range curves[0].Points {
			if p.Err == "" {
				t.Fatalf("%s: gap %g did not fail", name, p.MeanGap)
			}
		}
		if got, want := curveViolations(curves), len(spec.Gaps); got != want {
			t.Errorf("%s: curveViolations = %d, want %d (one per failed level)", name, got, want)
		}
	}
}

// TestEnumFlagsRejectUnknownValues drives the built tools: an unknown
// value of an enum flag — including the removed -kernel auto — or a flag
// the selected mode never reads must exit 1 with an error naming it,
// before any simulation starts, never fall back to a different experiment.
func TestEnumFlagsRejectUnknownValues(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tools")
	}
	bins := map[string]string{}
	for _, name := range []string{"tgsweep", "tgrepro", "nocsim"} {
		bins[name] = buildTool(t, name)
	}
	// The mode table covers every flag tgsweep declares: a flag no mode
	// reads could never be set.
	usage, _ := runTool(t, bins["tgsweep"], "-h")
	flags := regexp.MustCompile(`(?m)^  -(\S+)`).FindAllSubmatch(usage, -1)
	if len(flags) == 0 {
		t.Fatalf("tgsweep -h lists no flags:\n%s", usage)
	}
	for _, m := range flags {
		read := false
		for mode := range reads {
			read = read || readBy(mode, string(m[1]))
		}
		if !read {
			t.Errorf("tgsweep -%s is read by no mode", m[1])
		}
	}
	for _, tc := range []struct {
		tool string
		args []string
		want string
	}{
		{"tgrepro", []string{"-all", "-sizes", "quik"}, `-sizes "quik": want quick or default`},
		{"tgrepro", []string{"-table2", "-sizes", "Quick"}, `-sizes "Quick"`},
		{"nocsim", []string{"-mode", "TG"}, `-mode "TG": want arm or tg`},
		{"tgsweep", []string{"-kernel", "auto"}, `unknown kernel "auto"`},
		{"tgrepro", []string{"-all", "-kernel", "auto"}, `unknown kernel "auto"`},
		{"tgsweep", []string{"-scenario", "library", "-curve", "-curve-mode", "fast"}, `-curve-mode "fast": want uniform or adaptive`},
		// Flags a mode never reads are refused, not silently ignored.
		{"tgsweep", []string{"-scenario", "library", "-curve-mode", "adaptive"}, `-curve-mode requires -curve`},
		{"tgsweep", []string{"-scenario", "library", "-curve", "-analytic"}, `-analytic applies to grid/scenario sweeps, not -curve`},
		{"tgsweep", []string{"-retry-backoff", "1s"}, `-retry-backoff requires -retries N >= 2`},
		{"tgsweep", []string{"-resume"}, `-resume requires -journal`},
		{"tgsweep", []string{"-curve"}, `-curve requires -scenario`},
		{"tgsweep", []string{"-scenario", "library", "-grid", "g.json"}, `-grid applies to grid sweeps, not -scenario`},
		{"tgsweep", []string{"-validate", "-journal", "v.journal"}, `-journal applies to curve/grid/scenario sweeps, not -validate`},
		{"tgsweep", []string{"-validate", "-scenario", "library", "-curve"}, `-curve applies to curve sweeps, not -validate`},
		{"tgsweep", []string{"-validate", "-analytic"}, `-analytic applies to grid/scenario sweeps, not -validate`},
		{"tgsweep", []string{"-validate", "-shards", "2"}, `-shards applies to curve/grid/scenario sweeps, not -validate`},
		{"tgsweep", []string{"-print-grid", "-scenario", "library"}, `-scenario applies to curve/scenario/validate sweeps, not -print-grid`},
		{"nocsim", []string{"-on-violation", "ignore"}, `-on-violation "ignore": want record or fail`},
	} {
		out, err := runTool(t, bins[tc.tool], tc.args...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%s %v: %v, want exit status 1\n%s", tc.tool, tc.args, err, out)
			continue
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("%s %v: output %q does not name the value (want %q)", tc.tool, tc.args, out, tc.want)
		}
	}
}
