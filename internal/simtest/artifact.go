package simtest

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"noctg/internal/journal"
)

// artifactsEnv switches every row and every Pin from comparing to
// rewriting the stored file: NOCTG_ARTIFACTS=update. It is an environment
// variable, not a test flag, so that one command reaches every package.
const artifactsEnv = "NOCTG_ARTIFACTS"

// updateCommand regenerates every stored artifact.
const updateCommand = "NOCTG_ARTIFACTS=update go test -count=1 -run '^TestArtifacts' ./..."

// Artifact is one row of the artifact contract: a stored golden, digest or
// pin, and the producer of the bytes it must hold.
type Artifact struct {
	Name    string // names the row in failures and in the manifest
	Path    string // the stored file, relative to the package directory
	Produce func(t *testing.T) []byte
}

// Artifacts checks each row in a subtest named after it: it runs the
// producer twice and requires the same bytes, holds them to the stored
// file (Pin), and prints "artifact <name> <sha256>" at column 0, so that
//
//	go test -count=1 -run '^TestArtifacts' -v ./... | grep '^artifact '
//
// lists every row's digest, for a diff of two trees.
func Artifacts(t *testing.T, rows ...Artifact) {
	t.Helper()
	for _, a := range rows {
		t.Run(a.Name, func(t *testing.T) {
			sum, err := a.check(t)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Printf("artifact %s %s\n", a.Name, sum)
		})
	}
}

// check runs a's producer twice, pins its bytes and returns their sha256.
func (a Artifact) check(t *testing.T) (string, error) {
	got := a.Produce(t)
	if again := a.Produce(t); !bytes.Equal(again, got) {
		return "", fmt.Errorf("artifact %s: a second run of its producer differs: %s", a.Name, firstDiff(again, got))
	}
	return SHA256(got), pin(a.Name, a.Path, got)
}

// Pin holds got to the stored file of row name, as the row itself does; a
// differential pins its reference bytes with it.
func Pin(t testing.TB, name, path string, got []byte) {
	t.Helper()
	if err := pin(name, path, got); err != nil {
		t.Fatal(err)
	}
}

func pin(name, path string, got []byte) error {
	switch mode := os.Getenv(artifactsEnv); mode {
	case "update":
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		// Atomic like every artifact writer: an interrupted update must not
		// leave a torn file posing as a baseline.
		return journal.AtomicWrite(path, got)
	case "":
	default:
		return fmt.Errorf("%s=%q: want update or unset", artifactsEnv, mode)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("artifact %s: %v\ncreate it with: %s", name, err, updateCommand)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("artifact %s drifted from %s: %s\nif the change is intended, regenerate with: %s",
			name, path, firstDiff(got, want), updateCommand)
	}
	return nil
}

// JSON renders v as every stored JSON artifact is: indented by two spaces,
// with a final newline.
func JSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// SHA256 is the hex sha256 of b, as digests and the manifest spell it.
func SHA256(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
