package platform_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"noctg/internal/guard"
	"noctg/internal/layout"
	"noctg/internal/ocp"
	"noctg/internal/platform"
	"noctg/internal/simtest"
	"noctg/internal/stochastic"
)

// The platform's watchdog matrix: the deadlock horizon, run budget and
// barrier stall are driven to fire by real inputs or test-side masters, on
// the single-engine Monitor path (shards=0) and on the SPMD shard-runner
// path, under every kernel × shard row of the execution axis table. The
// conservation and pool-mass scans, which only a fabric bug can trip, are
// proven in internal/noc.

// eachRow runs f on every kernel × shard row of the table, as
// shards=<n>/<kernel> subtests.
func eachRow(t *testing.T, f func(t *testing.T, x simtest.Exec)) {
	rows := simtest.Rows(t, simtest.Kernel|simtest.Shards)
	var counts []int
	for _, x := range rows {
		if !slices.Contains(counts, x.Shards) {
			counts = append(counts, x.Shards)
		}
	}
	for _, n := range counts {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			for _, x := range rows {
				if x.Shards == n {
					t.Run(x.Kernel, func(t *testing.T) { f(t, x) })
				}
			}
		})
	}
}

// sharedScenario aims every master at the shared RAM: all four request
// streams funnel into one slave.
func sharedScenario(count int, seed int64) stochastic.Config {
	dests := make([]ocp.AddrRange, 4)
	for d := range dests {
		dests[d] = layout.SharedRange()
	}
	return stochastic.Config{
		Dist:    stochastic.Poisson,
		MeanGap: 4,
		Count:   count,
		Seed:    seed,
		Spatial: &stochastic.Spatial{
			Pattern: stochastic.UniformRandom, W: 2, H: 2,
			Dests: dests, AllowSelf: true,
		},
	}
}

func buildGuardedMesh(t *testing.T, x simtest.Exec, scfg stochastic.Config, cfg guard.Config) *platform.System {
	t.Helper()
	return buildGuarded(t, execConfig(t, x, platform.Config{Cores: 4, Interconnect: platform.XPipes}), scfg, cfg)
}

func buildGuarded(t *testing.T, pcfg platform.Config, scfg stochastic.Config, cfg guard.Config) *platform.System {
	t.Helper()
	sys, err := platform.Build(pcfg, func(_ *platform.System, id int, port ocp.MasterPort) platform.Master {
		return stochastic.New(id, scfg, port)
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableGuard(cfg)
	return sys
}

// mustViolate runs the system and requires a violation of the given kind
// with a diagnostic dump attached.
func mustViolate(t *testing.T, sys *platform.System, maxCycles uint64, kind guard.Kind) *guard.Violation {
	t.Helper()
	_, err := sys.Run(maxCycles)
	v, ok := guard.AsViolation(err)
	if !ok {
		t.Fatalf("run returned %v, want a %s violation", err, kind)
	}
	if v.Kind != kind {
		t.Fatalf("violation kind %s (%s), want %s", v.Kind, v.Msg, kind)
	}
	if v.Diag == nil {
		t.Fatalf("%s violation carries no diagnostic dump", kind)
	}
	return v
}

// TestGuardSlaveFreezeDeadlock: with 2^16 wait states every memory
// freezes for longer than the no-retire horizon. Every master's first
// request wedges behind the shared RAM, nothing retires while packets stay
// in flight, and the horizon fires with the blocked masters in the dump.
func TestGuardSlaveFreezeDeadlock(t *testing.T) {
	eachRow(t, func(t *testing.T, x simtest.Exec) {
		cfg := execConfig(t, x, platform.Config{Cores: 4, Interconnect: platform.XPipes, MemWaitStates: 1 << 16})
		sys := buildGuarded(t, cfg, sharedScenario(30, 2), guard.Config{NoRetireHorizon: 2000})
		v := mustViolate(t, sys, 300_000, guard.KindDeadlock)
		if len(v.Diag.Masters) != 4 {
			t.Fatalf("freeze dump shows %d blocked masters, want 4: %+v", len(v.Diag.Masters), v.Diag)
		}
	})
}

// TestGuardRunBudget: an (absurdly) tight wall-clock budget trips on a
// healthy long-running workload, on both the Monitor and the SPMD
// budget-bit path.
func TestGuardRunBudget(t *testing.T) {
	eachRow(t, func(t *testing.T, x simtest.Exec) {
		sys := buildGuardedMesh(t, x, sharedScenario(1<<30, 5),
			guard.Config{RunBudget: time.Nanosecond})
		_, err := sys.Run(10_000_000)
		v, ok := guard.AsViolation(err)
		if !ok || v.Kind != guard.KindBudget {
			t.Fatalf("run returned %v, want a %s violation", err, guard.KindBudget)
		}
	})
}

// napper wraps a master and sleeps on the host clock the first time it
// ticks at or after cycle at. It declares itself always awake on purpose,
// rather than forwarding the generator's NextWake, so that every kernel
// ticks it each cycle and the nap lands at cycle at on all of them.
type napper struct {
	platform.Master
	at    uint64
	nap   time.Duration
	slept bool
}

func (m *napper) NextWake(now uint64) uint64 { return now }

func (m *napper) Tick(cycle uint64) {
	if !m.slept && cycle >= m.at {
		m.slept = true
		time.Sleep(m.nap)
	}
	m.Master.Tick(cycle)
}

// TestGuardShardBarrierStall: master 0 naps for 300 ms of host time at
// cycle 50, so its shard (the first band) stops arriving at window
// barriers; a peer's stall watchdog fires instead of every shard spinning
// forever, and the dump carries per-shard window state.
func TestGuardShardBarrierStall(t *testing.T) {
	for _, x := range simtest.Rows(t, simtest.Kernel|simtest.Shards) {
		if x.Shards < 2 {
			continue // a barrier needs a peer to stall against
		}
		t.Run(x.String(), func(t *testing.T) {
			t.Parallel() // the napping shard sleeps; overlap the rows
			scfg := sharedScenario(1<<30, 6)
			sys, err := platform.Build(execConfig(t, x, platform.Config{Cores: 4, Interconnect: platform.XPipes}),
				func(_ *platform.System, id int, port ocp.MasterPort) platform.Master {
					m := platform.Master(stochastic.New(id, scfg, port))
					if id == 0 {
						m = &napper{Master: m, at: 50, nap: 300 * time.Millisecond}
					}
					return m
				})
			if err != nil {
				t.Fatal(err)
			}
			sys.EnableGuard(guard.Config{BarrierStall: 25 * time.Millisecond})
			shards := sys.Sharded.Shards()
			v := mustViolate(t, sys, 10_000_000, guard.KindBarrierStall)
			if v.Shard < 0 || v.Shard >= shards {
				t.Fatalf("barrier-stall violation names shard %d of %d", v.Shard, shards)
			}
			if len(v.Diag.Shards) != shards {
				t.Fatalf("dump has %d shard windows, want %d", len(v.Diag.Shards), shards)
			}
			// The runner is latched dead: later runs fail fast with the violation.
			if _, err := sys.Run(1000); err == nil {
				t.Fatal("poisoned runner accepted another run")
			}
		})
	}
}

// TestGuardFaultFreeIdentical: on a healthy workload, a fully guarded
// run is observably identical to an unguarded one — makespan, final
// cycle, issue counts and latency histograms — on every kernel × shard
// row. The watchdogs are purely observational.
func TestGuardFaultFreeIdentical(t *testing.T) {
	scfg := sharedScenario(150, 9)
	dflt := guard.Default()
	eachRow(t, func(t *testing.T, x simtest.Exec) {
		cfg := execConfig(t, x, platform.Config{Cores: 4, Interconnect: platform.XPipes})
		plain, guarded := observe(t, cfg, scfg, nil), observe(t, cfg, scfg, &dflt)
		if !reflect.DeepEqual(plain, guarded) {
			t.Fatalf("guarded run diverged from unguarded:\n got %+v\n ref %+v", guarded, plain)
		}
	})
}

// TestGuardedAdvanceAllocFree extends the sharded alloc guard to a guarded
// runner: the full default watchdog set — round verdicts, budget bit,
// bounded join and segment-end conservation scan — must stay off the heap
// in steady state.
func TestGuardedAdvanceAllocFree(t *testing.T) {
	scfg := sharedScenario(1<<30, 10)
	sys := buildGuardedMesh(t, simtest.Exec{Kernel: "event", Shards: 2}, scfg, guard.Default())
	if _, err := sys.Sharded.Advance(5_000); err != nil { // warm pools, rings, scan tally
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(20, func() {
		sys.Sharded.Advance(200)
	}); avg != 0 {
		t.Fatalf("guarded sharded advance allocates %.1f times per segment, want 0", avg)
	}
}
