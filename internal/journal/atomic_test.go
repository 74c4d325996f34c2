package journal

import (
	"os"
	"path/filepath"
	"testing"
)

func TestAtomicWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := AtomicWrite(path, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "v1" {
		t.Fatalf("wrote %q", got)
	}
	// Overwrite replaces whole-file.
	if err := AtomicWrite(path, []byte("v2-longer")); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "v2-longer" {
		t.Fatalf("overwrite left %q", got)
	}
	leftover(t, dir, 1)
}

// TestAtomicWriteMode: an artifact is readable by others, like one
// os.WriteFile writes with 0o644, not left at the temp file's 0600.
func TestAtomicWriteMode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.csv")
	if err := AtomicWrite(path, []byte("a,b\n")); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := fi.Mode().Perm(); got != 0o644 {
		t.Errorf("mode %v, want %v", got, os.FileMode(0o644))
	}
}

// TestAtomicWriteFailureLeavesNothing is the satellite requirement: a
// write that fails mid-stream must leave neither a partial target nor a
// stray temp file.
func TestAtomicWriteFailureLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, "ro")
	if err := os.Mkdir(sub, 0o555); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chmod(sub, 0o755) })
	path := filepath.Join(sub, "out.json")
	if err := AtomicWrite(path, []byte("data")); err == nil {
		if os.Getuid() == 0 {
			t.Skip("running as root; read-only directory is writable")
		}
		t.Fatal("write into a read-only directory succeeded")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("partial target left behind: %v", err)
	}
	leftover(t, sub, 0)
}

// TestAtomicWriteRenameFailureCleansTemp forces the rename step to fail
// (target path is a directory) and checks the temp file is removed.
func TestAtomicWriteRenameFailureCleansTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "is-a-dir")
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := AtomicWrite(path, []byte("data")); err == nil {
		t.Fatal("rename onto a non-empty path class succeeded unexpectedly")
	}
	leftover(t, dir, 1) // only the directory itself
}

// leftover fails the test unless dir holds exactly want entries — any
// extra entry is a leaked temp file.
func leftover(t *testing.T, dir string, want int) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != want {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("directory holds %v, want %d entries", names, want)
	}
}
