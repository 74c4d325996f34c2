package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"noctg/internal/core"
	"noctg/internal/ocp"
	"noctg/internal/sim"
	"noctg/internal/trace"
)

// TestModesRefuseFlagsTheyNeverRead drives a built tgc on valid inputs: a
// flag the selected mode never reads, a second mode flag among them, must
// exit 1 naming it and write nothing; every flag a mode reads still runs.
func TestModesRefuseFlagsTheyNeverRead(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "tgc")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building tgc: %v\n%s", err, out)
	}
	p, err := core.Assemble("MASTER[0,0]\nREGISTER a 0x08000000\nBEGIN\nRead(a)\nHalt\nEND")
	if err != nil {
		t.Fatal(err)
	}
	var tgp, img, trc bytes.Buffer
	if err := p.Format(&tgp); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteBin(&img); err != nil {
		t.Fatal(err)
	}
	events := []ocp.Event{{Cmd: ocp.Read, Addr: 0x08000000, Burst: 1, Assert: 3, Accept: 4, Resp: 6,
		HasResp: true, Data: []uint32{0}}}
	if err := trace.New(0, sim.Clock{}, events).Write(&trc); err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string][]byte{"p.tgp": tgp.Bytes(), "p.bin": img.Bytes(), "p.trc": trc.Bytes()} {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		args []string
		want string // "" for a run that must succeed
	}{
		{[]string{"-asm", "p.tgp", "-bin", "p.bin", "-timeshift", "-pollgap", "7", "-rewind"}, "-pollgap does not apply to -asm"},
		{[]string{"-dump", "p.bin", "-tgp", "out.tgp"}, "-tgp does not apply to -dump"},
		{[]string{"-asm", "p.tgp", "-trc", "p.trc"}, "-asm does not apply to -trc"},
		{[]string{"-dump", "p.bin", "-asm", "p.tgp"}, "-asm does not apply to -dump"},
		{[]string{"-asm", "p.tgp", "-tgp", "out.tgp", "-bin", "out.bin"}, ""},
		{[]string{"-trc", "p.trc", "-timeshift", "-pollgap", "7", "-rewind", "-tgp", "out.tgp", "-bin", "out.bin"}, ""},
		{[]string{"-dump", "p.bin"}, ""},
	} {
		for _, f := range []string{"out.tgp", "out.bin"} {
			os.Remove(filepath.Join(dir, f))
		}
		cmd := exec.Command(bin, tc.args...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		if tc.want == "" {
			if err != nil {
				t.Errorf("tgc %v: %v\n%s", tc.args, err, out)
			}
			continue
		}
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("tgc %v: %v, want exit status 1\n%s", tc.args, err, out)
			continue
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("tgc %v: output %q does not name the flag (want %q)", tc.args, out, tc.want)
		}
		if _, err := os.Stat(filepath.Join(dir, "out.tgp")); err == nil {
			t.Errorf("tgc %v: refused, yet wrote out.tgp", tc.args)
		}
	}
}
