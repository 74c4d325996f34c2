package main

// Crash-resume integration test: a real tgsweep subprocess is SIGKILLed at
// a seeded-random point of a journaled sweep, resumed with -resume, and its
// final artifacts are byte-compared against an uninterrupted run. This is
// the end-to-end check of the journal contract — the in-process variants
// live in internal/sweep (TestResumeTruncateAnywhere cuts the journal at
// every record boundary; internal/journal truncates at every byte).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"noctg/internal/journal"
	"noctg/internal/sweep"
)

// buildTool compiles the command cmd/<name> into a temporary directory.
func buildTool(t *testing.T, name string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), name)
	cmd := exec.Command("go", "build", "-o", bin, "../"+name)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

// crashGrid is sized so a full sweep takes long enough (hundreds of
// milliseconds) that a randomized kill reliably lands mid-campaign, while
// staying cheap enough for -race CI.
func crashGrid(t *testing.T, dir string) string {
	t.Helper()
	g := sweep.Grid{
		Workloads: []sweep.Workload{{
			Kind:     sweep.KindStochastic,
			Dist:     "uniform",
			Cores:    4,
			MeanGap:  6,
			Count:    16000,
			Pattern:  "transpose",
			PatternW: 2,
			PatternH: 2,
		}},
		Fabrics: []sweep.Fabric{
			{Interconnect: sweep.FabricAMBA},
			{Interconnect: sweep.FabricXPipes},
		},
		Seeds: []int64{1, 2, 3},
	}
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "grid.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runSweep executes the binary to completion and fails the test on a
// nonzero exit.
func runSweep(t *testing.T, bin string, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return out
}

func readArtifacts(t *testing.T, base string) (jsonB, csvB []byte) {
	t.Helper()
	jsonB, err := os.ReadFile(base + ".json")
	if err != nil {
		t.Fatal(err)
	}
	csvB, err = os.ReadFile(base + ".csv")
	if err != nil {
		t.Fatal(err)
	}
	return jsonB, csvB
}

func TestCrashResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills subprocesses")
	}
	bin := buildTool(t, "tgsweep")
	dir := t.TempDir()
	grid := crashGrid(t, dir)

	// The uninterrupted reference run — single engine, no journal — is the
	// one baseline for every trial: it also cross-checks that the journaled
	// path, the kernel and the shard count change no artifact bytes. (It
	// keeps the default kernel so its wall time calibrates the kill delay.)
	base := filepath.Join(dir, "base")
	start := time.Now()
	runSweep(t, bin, "-grid", grid, "-workers", "2", "-out", base)
	wall := time.Since(start)
	wantJSON, wantCSV := readArtifacts(t, base)

	// Seeded, so a failure reproduces; the kill lands somewhere in the
	// middle 10–90% of the measured uninterrupted wall time.
	rnd := rand.New(rand.NewSource(9))
	trials := []struct {
		workers string
		kernel  string
		shards  string
		// resumeShards is the -shards of the resuming process: the shard
		// count is a pure execution knob, so a campaign may change it
		// across the crash.
		resumeShards string
	}{
		{"2", "event", "0", "0"},
		{"1", "strict", "0", "2"},
		{"3", "event", "2", "0"},
	}
	for i, tr := range trials {
		out := filepath.Join(dir, fmt.Sprintf("crash%d", i))
		journalPath := out + ".journal"
		delay := wall / 10
		if span := int64(8 * wall / 10); span > 0 {
			delay += time.Duration(rnd.Int63n(span))
		}

		args := []string{"-grid", grid, "-workers", tr.workers, "-kernel", tr.kernel,
			"-journal", journalPath, "-out", out}
		cmd := exec.Command(bin, append(args, "-shards", tr.shards)...)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		// The child is reaped on every path: exited carries its Wait.
		exited := make(chan error, 1)
		go func() { exited <- cmd.Wait() }()
		// The kill lands at the drawn delay or, where process start-up and
		// the first point alone outlast that, as soon after as the journal
		// holds a finished point — a kill before then only tests re-running
		// from scratch. SIGKILL: no handler runs, so whatever the journal
		// holds — torn tail included — is exactly what resume must recover
		// from. The process may legitimately have finished already (timing
		// noise); resume must be byte-identical either way.
		var err error
		killAt := time.Now().Add(delay)
		for alive := true; alive; {
			select {
			case err = <-exited:
				alive = false
			case <-time.After(2 * time.Millisecond):
				if time.Now().Before(killAt) {
					continue
				}
				if log, lerr := journal.Load(journalPath); lerr == nil && len(log.Done) > 0 {
					_ = cmd.Process.Kill()
					err = <-exited
					alive = false
				}
			}
		}
		t.Logf("trial %d (workers=%s kernel=%s shards=%s, resumed at shards=%s): killed after %v (%v)",
			i, tr.workers, tr.kernel, tr.shards, tr.resumeShards, delay, err)

		stderr := runSweep(t, bin, append(args, "-shards", tr.resumeShards, "-resume")...)
		if err != nil && !bytes.Contains(stderr, []byte("resumed")) &&
			!bytes.Contains(stderr, []byte("ran")) {
			t.Fatalf("trial %d: resume reported nothing:\n%s", i, stderr)
		}
		gotJSON, gotCSV := readArtifacts(t, out)
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("trial %d: resumed JSON differs from uninterrupted run", i)
		}
		if !bytes.Equal(gotCSV, wantCSV) {
			t.Fatalf("trial %d: resumed CSV differs from uninterrupted run", i)
		}
	}
}
