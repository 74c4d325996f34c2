package platform_test

import (
	"encoding/json"
	"fmt"
	"testing"

	"noctg/internal/layout"
	"noctg/internal/noc"
	"noctg/internal/ocp"
	"noctg/internal/platform"
	"noctg/internal/sim"
	"noctg/internal/simtest"
	"noctg/internal/stochastic"
)

// privDests are the private memories of the first n cores, one spatial
// destination per logical node.
func privDests(n int) []ocp.AddrRange {
	dests := make([]ocp.AddrRange, n)
	for d := range dests {
		dests[d] = layout.PrivRange(d)
	}
	return dests
}

// TestShardAdvanceAllocFree is the end-to-end alloc guard for the sharded
// hot path: once pools and rings are warm, advancing a 2-shard system under
// continuous cross-shard traffic (masters in the bottom band, every slave in
// the top band) must not allocate — windows, barriers, worker spawns and the
// cut-link flit exchange included.
func TestShardAdvanceAllocFree(t *testing.T) {
	const w, h = 2, 2
	cores := w * h
	dests := privDests(cores)
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
// boundaries, the phased result and the synced registry snapshot are the
// same under every kernel and shard count.
func TestShardPhasedMatchesSingle(t *testing.T) {
	const w, h = 2, 2
	cores := w * h
	dests := privDests(cores)
	scfg := stochastic.Config{
		Dist:    stochastic.Poisson,
		MeanGap: 6,
		Count:   400,
		Seed:    42,
		Spatial: &stochastic.Spatial{Pattern: stochastic.Transpose, W: w, H: h, Dests: dests},
	}
	simtest.Differential(t, "phased run", simtest.Kernel|simtest.Shards, func(t *testing.T, x simtest.Exec) []byte {
		sys, err := platform.Build(execConfig(t, x, platform.Config{Cores: cores, Interconnect: platform.XPipes}),
			func(_ *platform.System, id int, port ocp.MasterPort) platform.Master {
				return stochastic.New(id, scfg, port)
			})
		if err != nil {
			t.Fatalf("%v: %v", x, err)
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
			t.Fatalf("%v: %v", x, err)
		}
		if len(epochs) == 0 {
			t.Fatalf("%v: no epochs ran", x)
		}
		sys.Stats.Sync(sys.Engine.Cycle())
		snap, err := json.Marshal(sys.Stats.Snapshot())
		if err != nil {
			t.Fatalf("%v: snapshot: %v", x, err)
		}
		return fmt.Appendf(nil, "%+v epochs %v\n%s", res, epochs, snap)
	})
}
