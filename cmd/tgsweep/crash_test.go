package main

// Crash-resume integration test: a real tgsweep subprocess is SIGKILLed, or
// SIGTERM-drained, at a seeded-random point of a journaled sweep, resumed
// with -resume, and its final artifacts are byte-compared against an
// uninterrupted run. This is the end-to-end check of the journal contract
// and the CLI signal path — the in-process variants live in internal/sweep
// (TestResumeTruncateAnywhere cuts the journal at every record boundary;
// internal/journal truncates at every byte).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"testing"
	"time"

	"noctg/internal/journal"
	"noctg/internal/scenario"
	"noctg/internal/simtest"
	"noctg/internal/sweep"
)

// toolTimeout bounds every child process a test starts: past it the child
// is SIGKILLed, so a hung tool fails its test instead of outliving it.
const toolTimeout = 3 * time.Minute

// signalBound is how long a signalled child may take to exit (a SIGTERM
// drain finishes its in-flight points) before it is SIGKILLed.
const signalBound = time.Minute

// child is a tool process started by a test.
type child struct {
	cmd    *exec.Cmd
	exited chan struct{} // closed once the child is reaped
	err    error         // its Wait error, valid once exited is closed
}

// startTool starts name with args under the toolTimeout deadline, sending
// its stdout and stderr to out. The test's cleanup SIGKILLs a child still
// running and reaps it, whichever way the test ends.
func startTool(t *testing.T, out io.Writer, name string, args ...string) *child {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), toolTimeout)
	c := &child{cmd: exec.CommandContext(ctx, name, args...), exited: make(chan struct{})}
	c.cmd.Stdout, c.cmd.Stderr = out, out
	c.cmd.WaitDelay = time.Second
	if err := c.cmd.Start(); err != nil {
		cancel()
		t.Fatal(err)
	}
	go func() {
		c.err = c.cmd.Wait()
		close(c.exited)
	}()
	t.Cleanup(func() {
		cancel()
		<-c.exited
	})
	return c
}

// runTool runs name with args to completion and returns its combined
// output and exit error.
func runTool(t *testing.T, name string, args ...string) ([]byte, error) {
	t.Helper()
	var out bytes.Buffer
	c := startTool(t, &out, name, args...)
	<-c.exited
	return out.Bytes(), c.err
}

// toolDir holds the tools buildTool links, one build per tool and test
// binary; TestMain removes it.
var toolDir string

// toolBuilds maps a tool name to its build.
var toolBuilds sync.Map

type toolBuild struct {
	once sync.Once
	bin  string
	out  []byte
	err  error
}

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "tgsweep-tools-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	toolDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// buildTool compiles the command cmd/<name> on its first call and returns
// that binary on every call.
func buildTool(t *testing.T, name string) string {
	t.Helper()
	v, _ := toolBuilds.LoadOrStore(name, &toolBuild{})
	b := v.(*toolBuild)
	b.once.Do(func() {
		b.bin = filepath.Join(toolDir, name)
		b.out, b.err = runTool(t, "go", "build", "-o", b.bin, "../"+name)
	})
	if b.err != nil {
		t.Fatalf("building %s: %v\n%s", name, b.err, b.out)
	}
	return b.bin
}

// crashGrid is sized so a full sweep takes long enough (hundreds of
// milliseconds) that a randomized kill reliably lands mid-campaign, while
// staying cheap enough for -race CI. It holds a TG replay of a paper
// program as well as stochastic points, so both kinds resume.
func crashGrid(t *testing.T, dir string) string {
	t.Helper()
	g := sweep.Grid{
		Workloads: []sweep.Workload{
			{Kind: sweep.KindTG, Bench: "mpmatrix", Cores: 2, Size: 8},
			{
				Kind:     sweep.KindStochastic,
				Dist:     "uniform",
				Cores:    4,
				MeanGap:  6,
				Count:    6000,
				Pattern:  "transpose",
				PatternW: 2,
				PatternH: 2,
			},
		},
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
	out, err := runTool(t, bin, args...)
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

// interrupt starts a journaled run and sends it sig at the given delay or,
// where process start-up and the first point alone outlast that, as soon
// after as the journal holds a finished point — an earlier signal would
// only test re-running every point. SIGKILL runs no handler, so whatever
// the journal holds — torn tail included — is exactly what resume must
// recover from; SIGTERM drains: in-flight points finish and the journal is
// flushed. The process may legitimately have finished already (timing
// noise). A child that outlives signalBound after the signal is SIGKILLed
// and fails the test. The child is reaped on every path; its Wait error is
// returned.
func interrupt(t *testing.T, bin string, args []string, journalPath string, delay time.Duration, sig os.Signal) error {
	t.Helper()
	c := startTool(t, os.Stderr, bin, args...)
	killAt := time.Now().Add(delay)
	for {
		select {
		case <-c.exited:
			return c.err
		case <-time.After(2 * time.Millisecond):
			if time.Now().Before(killAt) {
				continue
			}
			if log, lerr := journal.Load(journalPath); lerr == nil && len(log.Done) > 0 {
				_ = c.cmd.Process.Signal(sig)
				select {
				case <-c.exited:
					return c.err
				case <-time.After(signalBound):
					_ = c.cmd.Process.Kill()
					<-c.exited
					t.Fatalf("%s still running %v after %v", filepath.Base(bin), signalBound, sig)
				}
			}
		}
	}
}

// execArgs are the tgsweep flags of one execution row.
func execArgs(x simtest.Exec) []string {
	return []string{"-kernel", x.Kernel, "-shards", strconv.Itoa(x.Shards), "-workers", strconv.Itoa(x.Workers)}
}

// TestCrashResumeByteIdentical interrupts a journaled grid and a journaled
// adaptive curve campaign, by SIGKILL and by SIGTERM, on the rows of the
// execution axis table, and resumes each on the next row: the kernel, the
// shard count and the worker count are execution knobs, not part of a
// point's journal key, so a campaign may change them across the crash. The
// kernel only rotates over the sharded and multi-worker rows: journals cut
// on each kernel alone are internal/sweep TestJournaledMatchesPlain's rows.
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
	rows := simtest.Rows(t, simtest.Kernel|simtest.Shards|simtest.Workers|simtest.Rotated)

	// The uninterrupted, unjournaled reference run of each campaign is the
	// one baseline for its trials; its wall time calibrates the delays.
	type reference struct {
		json, csv []byte
		wall      time.Duration
	}
	refs := map[string]reference{}
	for name, args := range campaigns {
		base := filepath.Join(dir, "base-"+name)
		start := time.Now()
		runSweep(t, bin, slices.Concat(args, execArgs(rows[0]), []string{"-out", base})...)
		wall := time.Since(start)
		jsonB, csvB := readArtifacts(t, base)
		refs[name] = reference{jsonB, csvB, wall}
	}

	// Seeded, so a failure reproduces; the signal lands somewhere in the
	// middle 10–90% of the reference's wall time. Trial i runs kind i mod 4
	// on row i and resumes on row i+1, so every kind and every row appears.
	kinds := []struct {
		campaign string
		sig      os.Signal
	}{{"grid", os.Kill}, {"curve", os.Kill}, {"grid", syscall.SIGTERM}, {"curve", syscall.SIGTERM}}
	rnd := rand.New(rand.NewSource(9))
	for i := range max(len(rows), len(kinds)) {
		kind, x, y := kinds[i%len(kinds)], rows[i%len(rows)], rows[(i+1)%len(rows)]
		ref := refs[kind.campaign]
		out := filepath.Join(dir, fmt.Sprintf("trial%d", i))
		journalPath := out + ".journal"
		delay := ref.wall / 10
		if span := int64(8 * ref.wall / 10); span > 0 {
			delay += time.Duration(rnd.Int63n(span))
		}
		args := append(slices.Clone(campaigns[kind.campaign]), "-journal", journalPath, "-out", out)
		err := interrupt(t, bin, slices.Concat(args, execArgs(x)), journalPath, delay, kind.sig)
		t.Logf("trial %d (%s, %v on %v, resumed on %v): signalled after %v (%v)",
			i, kind.campaign, kind.sig, x, y, delay, err)

		stderr := runSweep(t, bin, slices.Concat(args, execArgs(y), []string{"-resume"})...)
		if err != nil && !bytes.Contains(stderr, []byte("resumed")) &&
			!bytes.Contains(stderr, []byte("ran")) {
			t.Fatalf("trial %d: resume reported nothing:\n%s", i, stderr)
		}
		if gotJSON, gotCSV := readArtifacts(t, out); !bytes.Equal(gotJSON, ref.json) || !bytes.Equal(gotCSV, ref.csv) {
			t.Fatalf("trial %d: resumed artifacts differ from the uninterrupted run", i)
		}
	}
}

// TestFailedJournalReportedOnce: after the journal's first failed write,
// every later point's record meets the same sticky error, and the run
// reports it once. The file-size limit is the child's alone.
func TestFailedJournalReportedOnce(t *testing.T) {
	dir := t.TempDir()
	out, err := runTool(t, "sh", "-c", `ulimit -f 8; exec "$0" "$@"`, buildTool(t, "tgsweep"),
		"-workers", "2", "-journal", filepath.Join(dir, "journal"), "-out", filepath.Join(dir, "out"))
	if n := bytes.Count(out, []byte("file too large")); err == nil || n != 1 {
		t.Errorf("with its journal limited to 8 blocks the run exits %v and reports the journal error %d times, want a failure reported once:\n%s", err, n, out)
	}
}
