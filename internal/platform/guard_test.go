package platform_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"noctg/internal/guard"
	"noctg/internal/layout"
	"noctg/internal/noc"
	"noctg/internal/ocp"
	"noctg/internal/platform"
	"noctg/internal/simtest"
	"noctg/internal/stochastic"
)

// The guard fault matrix: every watchdog is driven to fire by a seeded
// guard.FaultPlan, on the single-engine Monitor path (shards=0) and on the
// SPMD shard-runner path, under every kernel × shard row of the execution
// axis table.

// sharedNode is where the shared RAM lands on the 4x4/4-core floorplan:
// masters fill nodes 0..3, privs take 15..12, shared 11, semaphores 10.
const sharedNode = 11

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
// streams funnel into sharedNode, so a fault anywhere on master 0's
// east-bound path or at the shared slave is guaranteed traffic.
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
	sys, err := platform.Build(execConfig(t, x, platform.Config{Cores: 4, Interconnect: platform.XPipes}), func(_ *platform.System, id int, port ocp.MasterPort) platform.Master {
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

// forever is the fault window that outlasts any test run.
const forever = uint64(1) << 62

// TestGuardLinkStallDeadlock: a permanently stalled router output wedges
// master 0's traffic; once the other masters drain, nothing retires while
// packets stay in flight, and the no-retire horizon fires with the stuck
// queues in the dump.
func TestGuardLinkStallDeadlock(t *testing.T) {
	eachRow(t, func(t *testing.T, x simtest.Exec) {
		sys := buildGuardedMesh(t, x, sharedScenario(30, 1),
			guard.Config{NoRetireHorizon: 2000})
		if err := sys.InjectFaults(guard.FaultPlan{
			LinkStalls: []guard.LinkStall{{Node: 0, Dir: "e", From: 0, To: forever}},
		}); err != nil {
			t.Fatal(err)
		}
		v := mustViolate(t, sys, 300_000, guard.KindDeadlock)
		if len(v.Diag.Queues) == 0 {
			t.Fatalf("deadlock dump shows no stuck queues: %+v", v.Diag)
		}
	})
}

// TestGuardSlaveFreezeDeadlock: a frozen shared-memory slave stops serving;
// every master wedges behind it and the horizon fires with the blocked
// masters in the dump.
func TestGuardSlaveFreezeDeadlock(t *testing.T) {
	eachRow(t, func(t *testing.T, x simtest.Exec) {
		sys := buildGuardedMesh(t, x, sharedScenario(30, 2),
			guard.Config{NoRetireHorizon: 2000})
		if err := sys.InjectFaults(guard.FaultPlan{
			SlaveFreezes: []guard.SlaveFreeze{{Node: sharedNode, From: 0, To: forever}},
		}); err != nil {
			t.Fatal(err)
		}
		v := mustViolate(t, sys, 300_000, guard.KindDeadlock)
		if len(v.Diag.Masters) == 0 {
			t.Fatalf("freeze dump shows no blocked masters: %+v", v.Diag)
		}
	})
}

// TestGuardFlitDropConservation: silently discarding forwarded flits makes
// a domain's resident-flit account disagree with its FIFO occupancy — the
// conservation scan catches it. The deadlock horizon is left disabled so
// the test pins the conservation kind specifically (sharded runs scan at
// segment boundaries, after the horizon would otherwise have fired).
func TestGuardFlitDropConservation(t *testing.T) {
	eachRow(t, func(t *testing.T, x simtest.Exec) {
		sys := buildGuardedMesh(t, x, sharedScenario(30, 3),
			guard.Config{Conservation: true, ConservationEvery: 256})
		if err := sys.InjectFaults(guard.FaultPlan{
			FlitDrops: []guard.FlitDrop{{Node: 0, Dir: "e", From: 0, To: forever}},
		}); err != nil {
			t.Fatal(err)
		}
		mustViolate(t, sys, 20_000, guard.KindConservation)
	})
}

// TestGuardPacketLeakPoolMass: a slave NI that forgets to recycle served
// request packets breaks pool mass — live references no longer cover the
// pool's outstanding count.
func TestGuardPacketLeakPoolMass(t *testing.T) {
	eachRow(t, func(t *testing.T, x simtest.Exec) {
		sys := buildGuardedMesh(t, x, sharedScenario(40, 4),
			guard.Config{Conservation: true, ConservationEvery: 64})
		if err := sys.InjectFaults(guard.FaultPlan{
			PacketLeaks: []guard.PacketLeak{{Node: sharedNode, From: 0, To: forever}},
		}); err != nil {
			t.Fatal(err)
		}
		mustViolate(t, sys, 30_000, guard.KindPoolMass)
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

// TestGuardShardBarrierStall: a shard put to sleep on the host clock stops
// arriving at window barriers; a peer's stall watchdog fires instead of
// every shard spinning forever, and the dump carries per-shard window
// state.
func TestGuardShardBarrierStall(t *testing.T) {
	for _, x := range simtest.Rows(t, simtest.Kernel|simtest.Shards) {
		if x.Shards < 2 {
			continue // a barrier needs a peer to stall against
		}
		t.Run(x.String(), func(t *testing.T) {
			t.Parallel() // the stalled shard sleeps; overlap the rows
			cfg := guard.Config{BarrierStall: 25 * time.Millisecond}
			sys := buildGuardedMesh(t, x, sharedScenario(1<<30, 6), cfg)
			shards := sys.Sharded.Shards()
			if err := sys.InjectFaults(guard.FaultPlan{
				ShardStalls: []guard.ShardStall{{Shard: 1, AtCycle: 50, Wall: 300 * time.Millisecond}},
			}); err != nil {
				t.Fatal(err)
			}
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

// TestGuardRandomPlanFires: the seeded random plan generator produces
// faults that actually trip a watchdog on the torus (where every direction
// has a link) — plan determinism is pinned in the guard package, this pins
// potency end to end.
func TestGuardRandomPlanFires(t *testing.T) {
	for _, x := range simtest.Rows(t, simtest.Kernel) {
		t.Run(x.Kernel, func(t *testing.T) { randomPlanFires(t, x) })
	}
}

func randomPlanFires(t *testing.T, x simtest.Exec) {
	scfg := sharedScenario(60, 7)
	sys, err := platform.Build(execConfig(t, x, platform.Config{
		Cores: 4, Interconnect: platform.XPipes, NoC: noc.Config{Topology: noc.Torus},
	}), func(_ *platform.System, id int, port ocp.MasterPort) platform.Master {
		return stochastic.New(id, scfg, port)
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableGuard(guard.Config{NoRetireHorizon: 2000, Conservation: true, ConservationEvery: 256})
	plan := guard.RandomPlan(11, 16, 4000)
	// Stretch the windows to the whole run so the plan is guaranteed to
	// intersect live traffic whatever the seed drew.
	for i := range plan.LinkStalls {
		plan.LinkStalls[i].To = forever
	}
	for i := range plan.SlaveFreezes {
		plan.SlaveFreezes[i].Node = sharedNode
		plan.SlaveFreezes[i].To = forever
	}
	for i := range plan.FlitDrops {
		plan.FlitDrops[i].To = forever
	}
	if err := sys.InjectFaults(plan); err != nil {
		t.Fatal(err)
	}
	_, err = sys.Run(300_000)
	if v, ok := guard.AsViolation(err); !ok {
		t.Fatalf("random plan tripped nothing: %v", err)
	} else if v.Kind != guard.KindDeadlock && v.Kind != guard.KindConservation && v.Kind != guard.KindPoolMass {
		t.Fatalf("random plan tripped unexpected kind %s", v.Kind)
	}
}

// TestGuardFaultFreeIdentical: with no faults injected, a fully guarded
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

// TestInjectFaultsValidation: a plan that targets anything the platform
// cannot host is rejected whole — wrong node, missing link, no slave, no
// shard runner — never silently half-applied.
func TestInjectFaultsValidation(t *testing.T) {
	scfg := sharedScenario(10, 12)
	single := buildGuardedMesh(t, simtest.Reference(), scfg, guard.Config{})
	sharded := buildGuardedMesh(t, simtest.Exec{Kernel: "strict", Shards: 2}, scfg, guard.Config{})
	cases := []struct {
		name string
		sys  *platform.System
		plan guard.FaultPlan
	}{
		{"node out of range", single, guard.FaultPlan{
			LinkStalls: []guard.LinkStall{{Node: 99, Dir: "e"}}}},
		{"negative node", single, guard.FaultPlan{
			FlitDrops: []guard.FlitDrop{{Node: -1, Dir: "e"}}}},
		{"bad direction", single, guard.FaultPlan{
			LinkStalls: []guard.LinkStall{{Node: 0, Dir: "x"}}}},
		{"missing mesh link", single, guard.FaultPlan{
			LinkStalls: []guard.LinkStall{{Node: 0, Dir: "n"}}}},
		{"freeze without slave", single, guard.FaultPlan{
			SlaveFreezes: []guard.SlaveFreeze{{Node: 0}}}},
		{"leak without slave", single, guard.FaultPlan{
			PacketLeaks: []guard.PacketLeak{{Node: 5}}}},
		{"shard stall on single engine", single, guard.FaultPlan{
			ShardStalls: []guard.ShardStall{{Shard: 0, Wall: time.Second}}}},
		{"shard stall out of range", sharded, guard.FaultPlan{
			ShardStalls: []guard.ShardStall{{Shard: 7, Wall: time.Second}}}},
		{"shard stall without wall", sharded, guard.FaultPlan{
			ShardStalls: []guard.ShardStall{{Shard: 0}}}},
	}
	for _, tc := range cases {
		if err := tc.sys.InjectFaults(tc.plan); err == nil {
			t.Errorf("%s: plan accepted", tc.name)
		}
	}
}
