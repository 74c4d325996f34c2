package platform_test

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"noctg/internal/core"
	"noctg/internal/layout"
	"noctg/internal/noc"
	"noctg/internal/ocp"
	"noctg/internal/platform"
	"noctg/internal/sim"
	"noctg/internal/stochastic"
)

// shardCounts is the partition matrix the determinism properties pin. The
// reference is always shards=0 — the strict kernel on the single engine,
// the only oracle — and every count, the cut-free shards=1 included, must
// match it.
var shardCounts = []int{1, 2, 3, 4}

// runObs captures everything a sharded run exposes that could diverge.
type runObs struct {
	makespan uint64
	cycle    uint64
	devices  int
	issued   []int
	hists    []sim.HistogramSnapshot
}

// TestShardDeterminismRandomPrograms: for randomized TG programs on the
// mesh and the torus, every shard count and every kernel must reproduce
// the strict single-engine run bit-for-bit: halt cycles, makespan, final
// engine cycle and the canonical snapshot device count. (The kernel axis at
// shards=0 is TestKernelPropertyRandomPrograms' job.)
func TestShardDeterminismRandomPrograms(t *testing.T) {
	const trials = 6
	for trial := 0; trial < trials; trial++ {
		r := rand.New(rand.NewSource(int64(trial)*2003 + 5))
		cores := 2 + r.Intn(3)
		progs := make([]*core.Program, cores)
		for i := range progs {
			p, err := core.Assemble(randomProgram(r, i, cores))
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			progs[i] = p
		}
		for _, topo := range []noc.Topology{noc.Mesh, noc.Torus} {
			run := func(kernel platform.KernelMode, shards int) (uint64, uint64, []uint64) {
				t.Helper()
				sys, err := platform.BuildTG(platform.Config{
					Cores: cores, Interconnect: platform.XPipes,
					NoC:    noc.Config{Width: 4, Height: 4, Topology: topo},
					Kernel: kernel,
					Shards: shards,
				}, progs)
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				if shards > 1 && sys.Sharded.Shards() != shards {
					t.Fatalf("trial %d: runner has %d shards, want %d", trial, sys.Sharded.Shards(), shards)
				}
				makespan, err := sys.Run(5_000_000)
				if err != nil {
					t.Fatalf("trial %d shards=%d: %v", trial, shards, err)
				}
				halts := make([]uint64, cores)
				for i, m := range sys.Masters {
					halts[i] = m.(*core.Device).HaltCycle()
				}
				return makespan, sys.EngineSnapshot().Cycles, halts
			}
			mkRef, cycRef, haltRef := run(platform.KernelStrict, 0)
			for _, kernel := range propertyKernels() {
				for _, shards := range shardCounts {
					mk, cyc, halt := run(kernel, shards)
					if mk != mkRef || cyc != cycRef {
						t.Fatalf("trial %d %v topo %v shards=%d: makespan %d (cycle %d), reference %d (cycle %d)",
							trial, kernel, topo, shards, mk, cyc, mkRef, cycRef)
					}
					if !reflect.DeepEqual(halt, haltRef) {
						t.Fatalf("trial %d %v topo %v shards=%d: halts %v, reference %v",
							trial, kernel, topo, shards, halt, haltRef)
					}
				}
			}
		}
	}
}

// shardObsRun executes one stochastic scenario at the given kernel/shard
// point and captures the full observable surface.
func shardObsRun(t *testing.T, scfg stochastic.Config, topo noc.Topology,
	kernel platform.KernelMode, shards int, maxCycles uint64) runObs {
	t.Helper()
	cores := scfg.Spatial.W * scfg.Spatial.H
	var gens []*stochastic.Generator
	sys, err := platform.Build(platform.Config{
		Cores: cores, Interconnect: platform.XPipes,
		NoC:    noc.Config{Width: 4, Height: 4, Topology: topo},
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
	makespan, err := sys.Run(maxCycles)
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

// TestShardDeterminismRandomScenarios is the -race stress half of the
// gate: randomized stochastic scenarios, kernels and shard counts, with
// the goroutine-per-shard runner exercised under load. Every observation —
// issue counts and full latency histograms included — must match the
// strict single-engine run.
func TestShardDeterminismRandomScenarios(t *testing.T) {
	trials := 12
	if testing.Short() {
		trials = 4
	}
	patterns := []stochastic.Pattern{
		stochastic.UniformRandom, stochastic.Transpose, stochastic.BitComplement,
		stochastic.BitReverse, stochastic.Hotspot, stochastic.NearestNeighbor,
	}
	for trial := 0; trial < trials; trial++ {
		r := rand.New(rand.NewSource(int64(trial)*877 + 11))
		const w, h = 2, 2
		cores := w * h
		dests := make([]ocp.AddrRange, cores)
		for d := range dests {
			dests[d] = layout.PrivRange(d)
		}
		spatial := &stochastic.Spatial{
			Pattern:   patterns[r.Intn(len(patterns))],
			W:         w,
			H:         h,
			Dests:     dests,
			AllowSelf: r.Intn(2) == 0,
		}
		if spatial.Pattern == stochastic.Hotspot {
			spatial.HotspotWeights = []float64{0, 0.1 + 0.8*r.Float64()}
		}
		scfg := stochastic.Config{
			Dist:    stochastic.Dist(r.Intn(4)),
			MeanGap: 2 + 20*r.Float64(),
			Count:   80 + r.Intn(160),
			Seed:    int64(trial),
			Spatial: spatial,
		}
		topo := []noc.Topology{noc.Mesh, noc.Torus}[r.Intn(2)]
		kernel := propertyKernels()[r.Intn(len(propertyKernels()))]

		ref := shardObsRun(t, scfg, topo, platform.KernelStrict, 0, 5_000_000)
		// Two random shard counts per trial keep the stress run fast while
		// still covering the matrix across trials.
		for i := 0; i < 2; i++ {
			shards := shardCounts[r.Intn(len(shardCounts))]
			got := shardObsRun(t, scfg, topo, kernel, shards, 5_000_000)
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("trial %d %v/%v %v shards=%d diverged from strict shards=0:\n got %+v\n ref %+v",
					trial, scfg.Dist, spatial.Pattern, kernel, shards, got, ref)
			}
		}
	}
}

// TestShardAdvanceAllocFree is the end-to-end alloc guard for the sharded
// hot path: once pools and rings are warm, advancing a 2-shard system under
// continuous cross-shard traffic (masters in the bottom band, every slave in
// the top band) must not allocate — windows, barriers, worker spawns and the
// cut-link flit exchange included.
func TestShardAdvanceAllocFree(t *testing.T) {
	const w, h = 2, 2
	cores := w * h
	dests := make([]ocp.AddrRange, cores)
	for d := range dests {
		dests[d] = layout.PrivRange(d)
	}
	scfg := stochastic.Config{
		Dist:    stochastic.Poisson,
		MeanGap: 3,
		Count:   1 << 30, // effectively endless: the guard wants steady state
		Seed:    7,
		Spatial: &stochastic.Spatial{Pattern: stochastic.Transpose, W: w, H: h, Dests: dests},
	}
	sys, err := platform.Build(platform.Config{
		Cores: cores, Interconnect: platform.XPipes,
		NoC:    noc.Config{Width: 4, Height: 4},
		Kernel: platform.KernelEvent,
		Shards: 2,
	}, func(_ *platform.System, id int, port ocp.MasterPort) platform.Master {
		return stochastic.New(id, scfg, port)
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Sharded.Advance(5_000) // warm packet pools, rings and goroutine stacks
	if avg := testing.AllocsPerRun(20, func() {
		sys.Sharded.Advance(200)
	}); avg != 0 {
		t.Fatalf("sharded advance allocates %.1f times per segment, want 0", avg)
	}
}

// TestShardPhasedMatchesSingle pins the phased path: warmup/epoch/drain
// boundaries, the phased result and the synced registry snapshot of every
// shard count must be identical to the single engine's.
func TestShardPhasedMatchesSingle(t *testing.T) {
	const w, h = 2, 2
	cores := w * h
	dests := make([]ocp.AddrRange, cores)
	for d := range dests {
		dests[d] = layout.PrivRange(d)
	}
	scfg := stochastic.Config{
		Dist:    stochastic.Poisson,
		MeanGap: 6,
		Count:   400,
		Seed:    42,
		Spatial: &stochastic.Spatial{Pattern: stochastic.Transpose, W: w, H: h, Dests: dests},
	}
	run := func(shards int) (sim.PhasedResult, string) {
		sys, err := platform.Build(platform.Config{
			Cores: cores, Interconnect: platform.XPipes,
			NoC:    noc.Config{Width: 4, Height: 4},
			Kernel: platform.KernelEvent,
			Shards: shards,
		}, func(_ *platform.System, id int, port ocp.MasterPort) platform.Master {
			return stochastic.New(id, scfg, port)
		})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		var epochs []uint64
		res, err := sys.RunPhased(sim.Phases{
			Warmup:    500,
			Epoch:     2000,
			MaxEpochs: 4,
			Drain:     100_000,
			AfterWarmup: func(now uint64) {
				sys.Stats.Sync(now)
				sys.Stats.Reset()
			},
			AfterEpoch: func(epoch int, start, end uint64) bool {
				epochs = append(epochs, start, end)
				return true
			},
		}, 2_000_000)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		sys.Stats.Sync(sys.Engine.Cycle())
		snap, err := json.Marshal(sys.Stats.Snapshot())
		if err != nil {
			t.Fatalf("shards=%d: snapshot: %v", shards, err)
		}
		if len(epochs) == 0 {
			t.Fatalf("shards=%d: no epochs ran", shards)
		}
		return res, string(snap)
	}
	refRes, refSnap := run(0)
	for _, shards := range shardCounts {
		res, snap := run(shards)
		if res != refRes {
			t.Fatalf("shards=%d: phased result %+v, reference %+v", shards, res, refRes)
		}
		if snap != refSnap {
			t.Fatalf("shards=%d: registry snapshot diverged from shards=0:\n%s\nvs\n%s", shards, snap, refSnap)
		}
	}
}
