package prog

import (
	"testing"

	"noctg/internal/cache"
	"noctg/internal/layout"
	"noctg/internal/platform"
)

var testCacheCfg = cache.Config{Lines: 64, WordsPerLine: 4}

// runSpec assembles and runs a spec on the given fabric, validating results.
func runSpec(t *testing.T, s *Spec, ic platform.Interconnect) *platform.System {
	t.Helper()
	progs, err := s.Assemble()
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	sys, err := platform.BuildARM(platform.Config{Cores: s.Cores, Interconnect: ic},
		progs, testCacheCfg, testCacheCfg)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if _, err := sys.Run(s.MaxCycles); err != nil {
		t.Fatalf("run: %v", err)
	}
	for i, m := range sys.Masters {
		if f, ok := m.(interface{ Faulted() bool }); ok && f.Faulted() {
			t.Fatalf("core %d faulted", i)
		}
	}
	if err := s.Validate(sys.Peek, progs[0].Symbols); err != nil {
		t.Fatalf("validate: %v", err)
	}
	return sys
}

func TestSPMatrixOnAMBA(t *testing.T) {
	sys := runSpec(t, SPMatrix(8), platform.AMBA)
	if sys.Engine.Cycle() == 0 {
		t.Fatal("no cycles simulated")
	}
}

func TestCacheloopOnAMBA(t *testing.T) {
	sys := runSpec(t, Cacheloop(4, 500), platform.AMBA)
	// After warmup the bus must be almost entirely idle.
	busy := float64(sys.Bus.BusyCycles()) / float64(sys.Engine.Cycle())
	if busy > 0.25 {
		t.Fatalf("cacheloop kept the bus %.0f%% busy; should be refills only", busy*100)
	}
}

func TestCacheloopScalesFlat(t *testing.T) {
	// Makespan must be nearly independent of the core count (the paper's
	// cumulative execution time stays ≈2.5M from 2P to 12P).
	mk := func(cores int) uint64 {
		s := Cacheloop(cores, 800)
		progs, _ := s.Assemble()
		sys, err := platform.BuildARM(platform.Config{Cores: cores}, progs, testCacheCfg, testCacheCfg)
		if err != nil {
			t.Fatal(err)
		}
		span, err := sys.Run(s.MaxCycles)
		if err != nil {
			t.Fatal(err)
		}
		return span
	}
	m2, m8 := mk(2), mk(8)
	if float64(m8) > float64(m2)*1.15 {
		t.Fatalf("cacheloop makespan grew from %d (2P) to %d (8P)", m2, m8)
	}
}

func TestMPMatrixOnAMBA(t *testing.T) {
	for _, cores := range []int{1, 2, 4} {
		sys := runSpec(t, MPMatrix(cores, 8), platform.AMBA)
		if cores > 1 {
			acq, fails, rel := sys.Sems.Stats()
			if acq == 0 || rel == 0 {
				t.Fatalf("%dP: no semaphore activity (acq=%d rel=%d)", cores, acq, rel)
			}
			_ = fails
		}
	}
}

func TestMPMatrixSemaphoreContention(t *testing.T) {
	sys := runSpec(t, MPMatrix(4, 8), platform.AMBA)
	_, fails, _ := sys.Sems.Stats()
	if fails == 0 {
		t.Fatal("4-core MP matrix should exhibit failed semaphore polls")
	}
}

func TestDESOnAMBA(t *testing.T) {
	runSpec(t, DES(2, 2), platform.AMBA)
}

func TestDESMoreCores(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-core DES in -short mode")
	}
	runSpec(t, DES(3, 2), platform.AMBA)
}

func TestMPMatrixOnXPipes(t *testing.T) {
	// Functional results must be identical on a completely different
	// interconnect — the property the paper's decoupling argument rests on.
	runSpec(t, MPMatrix(2, 6), platform.XPipes)
}

func TestCacheloopOnXPipes(t *testing.T) {
	runSpec(t, Cacheloop(2, 300), platform.XPipes)
}

func TestDESOnXPipes(t *testing.T) {
	if testing.Short() {
		t.Skip("NoC DES in -short mode")
	}
	runSpec(t, DES(2, 1), platform.XPipes)
}

func TestDeterministicMakespan(t *testing.T) {
	span := func() uint64 {
		s := MPMatrix(2, 6)
		progs, _ := s.Assemble()
		sys, err := platform.BuildARM(platform.Config{Cores: 2}, progs, testCacheCfg, testCacheCfg)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := sys.Run(s.MaxCycles)
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}
	if a, b := span(), span(); a != b {
		t.Fatalf("non-deterministic makespan: %d vs %d", a, b)
	}
}

func TestSpecAssemblePerCoreBases(t *testing.T) {
	s := Cacheloop(3, 10)
	progs, err := s.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range progs {
		if p.Base != layout.PrivBaseFor(i) {
			t.Fatalf("core %d base %#x", i, p.Base)
		}
	}
	if progs[0].Symbols["result"] == progs[1].Symbols["result"] {
		t.Fatal("per-core symbols should differ by base")
	}
}

func TestPollWordsRegistered(t *testing.T) {
	s := MPMatrix(4, 8)
	if len(s.PollWords) != 1+4 {
		t.Fatalf("expected ready + 4 done flags, got %d", len(s.PollWords))
	}
	if s.PollWords[0] != layout.SharedBase {
		t.Fatalf("ready flag at %#x", s.PollWords[0])
	}
}

func TestDESTablesStable(t *testing.T) {
	// The synthetic tables must be deterministic: TG translation equality
	// across interconnects depends on identical embedded data.
	a1, k1 := desTables()
	a2, k2 := desTables()
	if a1 != a2 || k1 != k2 {
		t.Fatal("desTables must be deterministic")
	}
	for r := range k1 {
		for g := range k1[r] {
			if k1[r][g] > 0x3f {
				t.Fatal("round-key chunks must be 6-bit")
			}
		}
	}
}

func TestRefDESChangesData(t *testing.T) {
	sp, ks := desTables()
	l, r := refDESBlock(0x01234567, 0x89abcdef, &sp, &ks)
	if l == 0x01234567 && r == 0x89abcdef {
		t.Fatal("encryption should change the block")
	}
	// Deterministic.
	l2, r2 := refDESBlock(0x01234567, 0x89abcdef, &sp, &ks)
	if l != l2 || r != r2 {
		t.Fatal("encryption must be deterministic")
	}
}

func TestInvalidSpecParamsPanic(t *testing.T) {
	for name, f := range map[string]func(){
		"spmatrix n":      func() { SPMatrix(1) },
		"cacheloop":       func() { Cacheloop(0, 1) },
		"cacheloop iters": func() { Cacheloop(2, maxCacheloopIters+1) },
		"mpmatrix":        func() { MPMatrix(4, 2) },
		"des blocks":      func() { DES(1, 0) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		})
	}
}

func TestPipelineOnAMBA(t *testing.T) {
	for _, cores := range []int{2, 3, 4} {
		runSpec(t, Pipeline(cores, 6), platform.AMBA)
	}
}

func TestPipelineOnXPipes(t *testing.T) {
	runSpec(t, Pipeline(3, 4), platform.XPipes)
}

func TestPipelinePollWords(t *testing.T) {
	s := Pipeline(4, 2)
	if len(s.PollWords) != 3 {
		t.Fatalf("4 stages need 3 handshake flags, got %d", len(s.PollWords))
	}
}

func TestPipelineInvalidParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("single-core pipeline should panic")
		}
	}()
	Pipeline(1, 10)
}
