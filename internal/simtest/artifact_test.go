package simtest

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestArtifactHarness drives one row over a temporary file through every
// outcome of the harness: a missing file, two updates, a match, a flipped
// byte, a producer that differs between runs and an unknown switch value.
func TestArtifactHarness(t *testing.T) {
	path := filepath.Join(t.TempDir(), "testdata", "row.json")
	body := []byte("{\n  \"makespan\": 1200\n}\n")
	fixed := func(b []byte) func(*testing.T) []byte { return func(*testing.T) []byte { return b } }
	row := Artifact{Name: "row", Path: path, Produce: fixed(body)}
	fails := func(a Artifact, wants ...string) {
		t.Helper()
		_, err := a.check(t)
		for _, w := range wants {
			if err == nil || !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %v, want a failure naming %q", a.Name, err, w)
			}
		}
	}

	t.Setenv(artifactsEnv, "")
	fails(row, "artifact row", updateCommand)

	t.Setenv(artifactsEnv, "update")
	for range 2 {
		if _, err := row.check(t); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, body) {
			t.Fatalf("after an update the file holds %q (%v), want %q", got, err, body)
		}
	}

	t.Setenv(artifactsEnv, "")
	if sum, err := row.check(t); err != nil || sum != SHA256(body) {
		t.Errorf("matching row: sha256 %s, %v; want %s", sum, err, SHA256(body))
	}
	flipped := bytes.Clone(body)
	flipped[16] ^= 1
	fails(Artifact{Name: "row", Path: path, Produce: fixed(flipped)}, "artifact row", path, "first difference at byte 16")
	runs := 0
	fails(Artifact{Name: "flaky", Path: path, Produce: func(*testing.T) []byte {
		runs++
		return fmt.Appendf(nil, "run %d\n", runs)
	}}, "artifact flaky", "second run")

	t.Setenv(artifactsEnv, "bogus")
	fails(row, artifactsEnv+`="bogus"`)
}
