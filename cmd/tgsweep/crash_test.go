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
	"noctg/internal/scenario"
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

// crashCurves writes a one-scenario file whose adaptive load-latency
// curve takes several lockstep rounds on the AMBA bus, cheap enough for
// -race CI.
func crashCurves(t *testing.T, dir string) string {
	t.Helper()
	specs := []scenario.Spec{{
		Name: "hotspot-amba", Fabric: "amba", Width: 2, Height: 2,
		Pattern: "hotspot", Hotspot: []float64{0, 0, 0.6},
		Warmup: 1000, EpochCycles: 2000, CITarget: 0.05,
	}}
	data, err := json.Marshal(specs)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "curves.json")
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

// killMidCampaign starts a journaled run and SIGKILLs it at the given delay
// or, where process start-up and the first point alone outlast that, as
// soon after as the journal holds a finished point — a kill before then
// only tests re-running every point. SIGKILL: no handler runs, so
// whatever the journal holds — torn tail included — is exactly what resume
// must recover from. The process may legitimately have finished already
// (timing noise). The child is reaped on every path; its Wait error is
// returned.
func killMidCampaign(t *testing.T, bin string, args []string, journalPath string, delay time.Duration) error {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	killAt := time.Now().Add(delay)
	for {
		select {
		case err := <-exited:
			return err
		case <-time.After(2 * time.Millisecond):
			if time.Now().Before(killAt) {
				continue
			}
			if log, lerr := journal.Load(journalPath); lerr == nil && len(log.Done) > 0 {
				_ = cmd.Process.Kill()
				return <-exited
			}
		}
	}
}

func TestCrashResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills subprocesses")
	}
	bin := buildTool(t, "tgsweep")
	dir := t.TempDir()
	campaigns := map[string][]string{
		"grid":  {"-grid", crashGrid(t, dir)},
		"curve": {"-scenario", crashCurves(t, dir), "-curve", "-curve-mode", "adaptive"},
	}

	// The uninterrupted reference run of each campaign — single engine, no
	// journal — is the one baseline for its trials: it also cross-checks
	// that the journaled path, the kernel and the shard count change no
	// artifact bytes. (It keeps the default kernel so its wall time
	// calibrates the kill delay.)
	type reference struct {
		json, csv []byte
		wall      time.Duration
	}
	refs := map[string]reference{}
	for name, args := range campaigns {
		base := filepath.Join(dir, "base-"+name)
		start := time.Now()
		runSweep(t, bin, append(args, "-workers", "2", "-out", base)...)
		wall := time.Since(start)
		jsonB, csvB := readArtifacts(t, base)
		refs[name] = reference{jsonB, csvB, wall}
	}

	// Seeded, so a failure reproduces; the kill lands somewhere in the
	// middle 10–90% of the measured uninterrupted wall time.
	rnd := rand.New(rand.NewSource(9))
	trials := []struct {
		campaign string
		workers  string
		kernel   string
		shards   string
		// resumeShards is the -shards of the resuming process: the shard
		// count is a pure execution knob, so a campaign may change it
		// across the crash.
		resumeShards string
	}{
		{"grid", "2", "event", "0", "0"},
		{"grid", "1", "strict", "0", "2"},
		{"grid", "3", "event", "2", "0"},
		// Every load level is a journaled point; the resume replays the
		// adaptive rounds and simulates only the missing levels.
		{"curve", "1", "event", "0", "0"},
	}
	for i, tr := range trials {
		ref := refs[tr.campaign]
		out := filepath.Join(dir, fmt.Sprintf("crash%d", i))
		journalPath := out + ".journal"
		delay := ref.wall / 10
		if span := int64(8 * ref.wall / 10); span > 0 {
			delay += time.Duration(rnd.Int63n(span))
		}

		args := append(append([]string{}, campaigns[tr.campaign]...),
			"-workers", tr.workers, "-kernel", tr.kernel, "-journal", journalPath, "-out", out)
		err := killMidCampaign(t, bin, append(args, "-shards", tr.shards), journalPath, delay)
		t.Logf("trial %d (%s workers=%s kernel=%s shards=%s, resumed at shards=%s): killed after %v (%v)",
			i, tr.campaign, tr.workers, tr.kernel, tr.shards, tr.resumeShards, delay, err)

		stderr := runSweep(t, bin, append(args, "-shards", tr.resumeShards, "-resume")...)
		if err != nil && !bytes.Contains(stderr, []byte("resumed")) &&
			!bytes.Contains(stderr, []byte("ran")) {
			t.Fatalf("trial %d: resume reported nothing:\n%s", i, stderr)
		}
		gotJSON, gotCSV := readArtifacts(t, out)
		if !bytes.Equal(gotJSON, ref.json) {
			t.Fatalf("trial %d: resumed JSON differs from uninterrupted run", i)
		}
		if !bytes.Equal(gotCSV, ref.csv) {
			t.Fatalf("trial %d: resumed CSV differs from uninterrupted run", i)
		}
	}
}
