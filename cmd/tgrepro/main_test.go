package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestRefusesBeforeRunning drives a built tgrepro: an unknown value of an
// enum flag must exit 1 naming it, and a command line that selects no
// experiment must print the usage and exit 2, both before any experiment
// runs.
func TestRefusesBeforeRunning(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "tgrepro")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building tgrepro: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		args []string
		exit int
		want string
	}{
		{[]string{"-all", "-sizes", "quik"}, 1, `-sizes "quik": want quick or default`},
		{[]string{"-table2", "-sizes", "Quick"}, 1, `-sizes "Quick"`},
		{[]string{"-all", "-kernel", "auto"}, 1, `unknown kernel "auto"`},
		{nil, 2, "Usage of"},
		{[]string{"-sizes", "quick", "-table2=false"}, 2, "Usage of"},
		// A bad value is named before the missing experiment.
		{[]string{"-kernel", "warp"}, 1, `unknown kernel "warp"`},
	} {
		cmd := exec.Command(bin, tc.args...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != tc.exit {
			t.Errorf("tgrepro %v: %v, want exit status %d\n%s", tc.args, err, tc.exit, out)
			continue
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("tgrepro %v: output %q does not name it (want %q)", tc.args, out, tc.want)
		}
		if strings.Contains(string(out), "== ") {
			t.Errorf("tgrepro %v ran an experiment before refusing:\n%s", tc.args, out)
		}
	}
}
