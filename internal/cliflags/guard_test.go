package cliflags

import (
	"flag"
	"io"
	"strings"
	"testing"
	"time"

	"noctg/internal/guard"
)

// TestGuardFlags pins the one resolution of -guard/-run-budget/-on-violation
// that nocsim, tgrepro and tgsweep share: a negative budget and an unknown
// -on-violation mode are rejected by every tool, not by one of three.
// -run-budget alone arms a budget-only guard; with -guard it joins the
// full watchdog set.
func TestGuardFlags(t *testing.T) {
	armed := guard.Default()
	budgetOnly := guard.Config{RunBudget: 2 * time.Second}
	armedBudget := guard.Default()
	armedBudget.RunBudget = 2 * time.Second
	for _, tc := range []struct {
		name    string
		def     string
		args    []string
		want    *guard.Config
		onViol  string
		wantErr string
	}{
		{name: "off", def: "record", onViol: "record"},
		{name: "guard", def: "fail", args: []string{"-guard"}, want: &armed, onViol: "fail"},
		{name: "budget only", def: "fail", args: []string{"-run-budget", "2s", "-on-violation", "record"}, want: &budgetOnly, onViol: "record"},
		{name: "guard and budget", def: "fail", args: []string{"-guard", "-run-budget", "2s"}, want: &armedBudget, onViol: "fail"},
		{name: "negative budget", def: "fail", args: []string{"-run-budget", "-1s"}, wantErr: "-run-budget -1s"},
		{name: "bad on-violation", def: "record", args: []string{"-guard", "-on-violation", "ignore"}, wantErr: `-on-violation "ignore"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			saved := flag.CommandLine
			defer func() { flag.CommandLine = saved }()
			flag.CommandLine = flag.NewFlagSet(tc.name, flag.ContinueOnError)
			flag.CommandLine.SetOutput(io.Discard)
			g := RegisterGuard(tc.def)
			if err := flag.CommandLine.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			got, err := g.Config()
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("Config() error = %v, want one naming %s", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if (got == nil) != (tc.want == nil) || (got != nil && *got != *tc.want) {
				t.Fatalf("Config() = %+v, want %+v", got, tc.want)
			}
			if *g.onViol != tc.onViol {
				t.Fatalf("-on-violation = %q, want %q", *g.onViol, tc.onViol)
			}
		})
	}
}
