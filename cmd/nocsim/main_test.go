package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestRunsRefuseFlagsTheyNeverRead drives a built nocsim: a flag the
// selected benchmark or mode never reads, an unknown value of an enum flag
// or a size out of its benchmark's range must exit 1 naming it, before any
// simulation starts and with nothing written; every flag a run reads still
// runs.
func TestRunsRefuseFlagsTheyNeverRead(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "nocsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building nocsim: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		args []string
		want string // "" for a run that must succeed
	}{
		{[]string{"-bench", "des", "-cores", "3", "-blocks", "2", "-n", "99", "-iters", "5", "-mode", "arm", "-tgp-dir", "tgp"},
			"-iters applies to cacheloop runs, not -bench des"},
		{[]string{"-bench", "des", "-cores", "1", "-blocks", "1", "-n", "4"}, "-n applies to spmatrix/mpmatrix runs, not -bench des"},
		{[]string{"-bench", "mpmatrix", "-cores", "2", "-n", "4", "-blocks", "2"}, "-blocks applies to des runs, not -bench mpmatrix"},
		{[]string{"-bench", "spmatrix", "-n", "4", "-cores", "2"}, "-cores applies to cacheloop/mpmatrix/des runs, not -bench spmatrix"},
		{[]string{"-bench", "spmatrix", "-n", "4", "-mode", "arm", "-tgp-dir", "tgp"}, "-tgp-dir applies to tg runs, not -mode arm"},
		{[]string{"-bench", "spmatrix", "-n", "4", "-tgp-dir", "tgp"}, "-tgp-dir applies to tg runs, not -mode arm"},
		{[]string{"-mode", "TG"}, `-mode "TG": want arm or tg`},
		{[]string{"-on-violation", "ignore"}, `-on-violation "ignore": want record or fail`},
		{[]string{"-bench", "foo"}, `-bench "foo": want spmatrix, cacheloop, mpmatrix or des`},
		{[]string{"-interconnect", "foo"}, `-interconnect "foo": want amba or xpipes`},
		// Out-of-range sizes fail by name, never as a panic.
		{[]string{"-bench", "mpmatrix", "-cores", "0"}, "-bench mpmatrix: prog: MPMatrix cores=0 n=16 invalid"},
		{[]string{"-n", "0"}, "-bench mpmatrix: prog: MPMatrix cores=2 n=0 invalid"},
		{[]string{"-bench", "des", "-blocks", "-1"}, "-bench des: prog: DES cores=2 blocks=-1 invalid"},
		{[]string{"-bench", "spmatrix", "-n", "-3"}, "-bench spmatrix: prog: SPMatrix n=-3 out of range [2,64]"},
		{[]string{"-bench", "spmatrix", "-n", "4"}, ""},
		{[]string{"-bench", "cacheloop", "-cores", "1", "-iters", "5", "-mode", "tg", "-tgp-dir", "tgp"}, ""},
	} {
		os.RemoveAll(filepath.Join(dir, "tgp"))
		cmd := exec.Command(bin, tc.args...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		_, statErr := os.Stat(filepath.Join(dir, "tgp"))
		wrote := statErr == nil
		if tc.want == "" {
			if err != nil {
				t.Errorf("nocsim %v: %v\n%s", tc.args, err, out)
			}
			if slices.Contains(tc.args, "-tgp-dir") && !wrote {
				t.Errorf("nocsim %v wrote no .tgp programs\n%s", tc.args, out)
			}
			continue
		}
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("nocsim %v: %v, want exit status 1\n%s", tc.args, err, out)
			continue
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("nocsim %v: output %q does not name the flag (want %q)", tc.args, out, tc.want)
		}
		if strings.Contains(string(out), "reference") || strings.Contains(string(out), "panic") || wrote {
			t.Errorf("nocsim %v simulated or wrote before refusing:\n%s", tc.args, out)
		}
	}
}
