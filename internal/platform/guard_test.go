package platform_test

import (
	"fmt"
	"os"
	"reflect"
	"strconv"
	"testing"
	"time"

	"noctg/internal/guard"
	"noctg/internal/layout"
	"noctg/internal/noc"
	"noctg/internal/ocp"
	"noctg/internal/platform"
	"noctg/internal/stochastic"
)

// The guard fault matrix: every watchdog is driven to fire by a seeded
// guard.FaultPlan, on the single-engine Monitor path (shards=0) and on the
// SPMD shard-runner path. CI sweeps the matrix via GUARD_KERNEL
// (strict/skip/event) and GUARD_SHARDS (sharded point; default 2), so one
// test body covers every kernel x partition combination.

// sharedNode is where the shared RAM lands on the 4x4/4-core floorplan:
// masters fill nodes 0..3, privs take 15..12, shared 11, semaphores 10.
const sharedNode = 11

func guardMatrixKernel(t *testing.T) platform.KernelMode {
	t.Helper()
	s := os.Getenv("GUARD_KERNEL")
	if s == "" {
		s = "event"
	}
	k, err := platform.ParseKernel(s)
	if err != nil {
		t.Fatalf("GUARD_KERNEL: %v", err)
	}
	return k
}

func guardMatrixShards(t *testing.T) int {
	t.Helper()
	s := os.Getenv("GUARD_SHARDS")
	if s == "" {
		return 2
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 {
		t.Fatalf("GUARD_SHARDS=%q: want a positive shard count", s)
	}
	return n
}

// guardMatrixPoints is the partition matrix each fault test runs: the
// single engine (Monitor watchdogs) and the sharded runner (SPMD
// verdicts).
func guardMatrixPoints(t *testing.T) []int {
	return []int{0, guardMatrixShards(t)}
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

func buildGuardedMesh(t *testing.T, kernel platform.KernelMode, shards int,
	scfg stochastic.Config, cfg guard.Config) *platform.System {
	t.Helper()
	sys, err := platform.Build(platform.Config{
		Cores: 4, Interconnect: platform.XPipes,
		NoC:    noc.Config{Width: 4, Height: 4},
		Kernel: kernel,
		Shards: shards,
	}, func(_ *platform.System, id int, port ocp.MasterPort) platform.Master {
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
	kernel := guardMatrixKernel(t)
	for _, shards := range guardMatrixPoints(t) {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			sys := buildGuardedMesh(t, kernel, shards, sharedScenario(30, 1),
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
}

// TestGuardSlaveFreezeDeadlock: a frozen shared-memory slave stops serving;
// every master wedges behind it and the horizon fires with the blocked
// masters in the dump.
func TestGuardSlaveFreezeDeadlock(t *testing.T) {
	kernel := guardMatrixKernel(t)
	for _, shards := range guardMatrixPoints(t) {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			sys := buildGuardedMesh(t, kernel, shards, sharedScenario(30, 2),
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
}

// TestGuardFlitDropConservation: silently discarding forwarded flits makes
// a domain's resident-flit account disagree with its FIFO occupancy — the
// conservation scan catches it. The deadlock horizon is left disabled so
// the test pins the conservation kind specifically (sharded runs scan at
// segment boundaries, after the horizon would otherwise have fired).
func TestGuardFlitDropConservation(t *testing.T) {
	kernel := guardMatrixKernel(t)
	for _, shards := range guardMatrixPoints(t) {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			sys := buildGuardedMesh(t, kernel, shards, sharedScenario(30, 3),
				guard.Config{Conservation: true, ConservationEvery: 256})
			if err := sys.InjectFaults(guard.FaultPlan{
				FlitDrops: []guard.FlitDrop{{Node: 0, Dir: "e", From: 0, To: forever}},
			}); err != nil {
				t.Fatal(err)
			}
			mustViolate(t, sys, 20_000, guard.KindConservation)
		})
	}
}

// TestGuardPacketLeakPoolMass: a slave NI that forgets to recycle served
// request packets breaks pool mass — live references no longer cover the
// pool's outstanding count.
func TestGuardPacketLeakPoolMass(t *testing.T) {
	kernel := guardMatrixKernel(t)
	for _, shards := range guardMatrixPoints(t) {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			sys := buildGuardedMesh(t, kernel, shards, sharedScenario(40, 4),
				guard.Config{Conservation: true, ConservationEvery: 64})
			if err := sys.InjectFaults(guard.FaultPlan{
				PacketLeaks: []guard.PacketLeak{{Node: sharedNode, From: 0, To: forever}},
			}); err != nil {
				t.Fatal(err)
			}
			mustViolate(t, sys, 30_000, guard.KindPoolMass)
		})
	}
}

// TestGuardRunBudget: an (absurdly) tight wall-clock budget trips on a
// healthy long-running workload, on both the Monitor and the SPMD
// budget-bit path.
func TestGuardRunBudget(t *testing.T) {
	kernel := guardMatrixKernel(t)
	for _, shards := range guardMatrixPoints(t) {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			sys := buildGuardedMesh(t, kernel, shards, sharedScenario(1<<30, 5),
				guard.Config{RunBudget: time.Nanosecond})
			_, err := sys.Run(10_000_000)
			v, ok := guard.AsViolation(err)
			if !ok || v.Kind != guard.KindBudget {
				t.Fatalf("run returned %v, want a %s violation", err, guard.KindBudget)
			}
		})
	}
}

// TestGuardShardBarrierStall: a shard put to sleep on the host clock stops
// arriving at window barriers; a peer's stall watchdog fires instead of
// every shard spinning forever, and the dump carries per-shard window
// state.
func TestGuardShardBarrierStall(t *testing.T) {
	kernel := guardMatrixKernel(t)
	shards := guardMatrixShards(t)
	if shards < 2 {
		shards = 2 // a barrier needs a peer to stall against
	}
	cfg := guard.Config{BarrierStall: 25 * time.Millisecond}
	sys := buildGuardedMesh(t, kernel, shards, sharedScenario(1<<30, 6), cfg)
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
}

// TestGuardRandomPlanFires: the seeded random plan generator produces
// faults that actually trip a watchdog on the torus (where every direction
// has a link) — plan determinism is pinned in the guard package, this pins
// potency end to end.
func TestGuardRandomPlanFires(t *testing.T) {
	kernel := guardMatrixKernel(t)
	scfg := sharedScenario(60, 7)
	sys, err := platform.Build(platform.Config{
		Cores: 4, Interconnect: platform.XPipes,
		NoC:    noc.Config{Width: 4, Height: 4, Topology: noc.Torus},
		Kernel: kernel,
	}, func(_ *platform.System, id int, port ocp.MasterPort) platform.Master {
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

// guardObsRun mirrors shardObsRun with a guard configuration applied, so
// the differential below can compare guarded and unguarded runs on the
// same observable surface.
func guardObsRun(t *testing.T, scfg stochastic.Config, kernel platform.KernelMode,
	shards int, cfg guard.Config) runObs {
	t.Helper()
	var gens []*stochastic.Generator
	sys, err := platform.Build(platform.Config{
		Cores: 4, Interconnect: platform.XPipes,
		NoC:    noc.Config{Width: 4, Height: 4},
		Kernel: kernel,
		Shards: shards,
	}, func(_ *platform.System, id int, port ocp.MasterPort) platform.Master {
		g := stochastic.New(id, scfg, port)
		gens = append(gens, g)
		return g
	})
	if err != nil {
		t.Fatalf("build shards=%d: %v", shards, err)
	}
	sys.EnableGuard(cfg)
	makespan, err := sys.Run(5_000_000)
	if err != nil {
		t.Fatalf("run shards=%d: %v", shards, err)
	}
	obs := runObs{makespan: makespan}
	snap := sys.EngineSnapshot()
	obs.cycle, obs.devices = snap.Cycles, snap.Devices
	for _, g := range gens {
		obs.issued = append(obs.issued, g.Issued())
		obs.hists = append(obs.hists, g.Latency.Snapshot())
	}
	return obs
}

// TestGuardFaultFreeIdentical: with no faults injected, a fully guarded
// run is observably identical to an unguarded one — makespan, final
// cycle, issue counts and latency histograms — on both the single-engine
// and sharded paths. The watchdogs are purely observational.
func TestGuardFaultFreeIdentical(t *testing.T) {
	kernel := guardMatrixKernel(t)
	scfg := sharedScenario(150, 9)
	for _, shards := range guardMatrixPoints(t) {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			plain := guardObsRun(t, scfg, kernel, shards, guard.Config{})
			guarded := guardObsRun(t, scfg, kernel, shards, guard.Default())
			if !reflect.DeepEqual(plain, guarded) {
				t.Fatalf("guarded run diverged from unguarded:\n got %+v\n ref %+v", guarded, plain)
			}
		})
	}
}

// TestGuardedAdvanceAllocFree extends the sharded alloc guard to a guarded
// runner: the full default watchdog set — round verdicts, budget bit,
// bounded join and segment-end conservation scan — must stay off the heap
// in steady state.
func TestGuardedAdvanceAllocFree(t *testing.T) {
	scfg := sharedScenario(1<<30, 10)
	sys := buildGuardedMesh(t, platform.KernelEvent, 2, scfg, guard.Default())
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
	single := buildGuardedMesh(t, platform.KernelStrict, 0, scfg, guard.Config{})
	sharded := buildGuardedMesh(t, platform.KernelStrict, 2, scfg, guard.Config{})
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
