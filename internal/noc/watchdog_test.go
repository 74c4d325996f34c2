package noc_test

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"noctg/internal/guard"
	"noctg/internal/layout"
	"noctg/internal/noc"
	"noctg/internal/ocp"
	"noctg/internal/platform"
	"noctg/internal/sim"
	"noctg/internal/simtest"
	"noctg/internal/stochastic"
)

// The conservation and pool-mass watchdogs end to end: a guarded platform
// runs healthy for 3000 cycles, one domain account is skewed the way a
// fabric bug would skew it, and the next run must stop with the matching
// violation — on the single-engine Monitor path (shards=0) and at the
// shard runner's segment end, under every kernel × shard row.

// TestGuardFlitDropConservation: a resident-flit account one above the
// FIFO occupancy — what a flit dropped in flight leaves — is caught by the
// conservation scan.
func TestGuardFlitDropConservation(t *testing.T) {
	corruptedRun(t, guard.KindConservation, noc.SkewResidentFlits)
}

// TestGuardPacketLeakPoolMass: an outstanding-packet count one above the
// live references — what a packet never recycled leaves — breaks pool
// mass.
func TestGuardPacketLeakPoolMass(t *testing.T) {
	corruptedRun(t, guard.KindPoolMass, noc.SkewLivePackets)
}

func corruptedRun(t *testing.T, kind guard.Kind, corrupt func(*noc.Network)) {
	eachRow(t, func(t *testing.T, x simtest.Exec) {
		sys := guardedMesh(t, x, guard.Config{Conservation: true, ConservationEvery: 256})
		if _, err := sys.Run(3000); !errors.Is(err, sim.ErrMaxCycles) {
			t.Fatalf("healthy run returned %v, want the cycle budget", err)
		}
		corrupt(sys.Net)
		_, err := sys.Run(3000)
		v, ok := guard.AsViolation(err)
		if !ok || v.Kind != kind {
			t.Fatalf("corrupted run returned %v, want a %s violation", err, kind)
		}
		if v.Diag == nil {
			t.Fatalf("%s violation carries no diagnostic dump", kind)
		}
	})
}

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

// guardedMesh builds row x's 4x4 mesh with four never-ending Poisson
// masters aimed at the shared RAM and arms cfg.
func guardedMesh(t *testing.T, x simtest.Exec, cfg guard.Config) *platform.System {
	t.Helper()
	kernel, err := platform.ParseKernel(x.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	dests := make([]ocp.AddrRange, 4)
	for d := range dests {
		dests[d] = layout.SharedRange()
	}
	scfg := stochastic.Config{
		Dist: stochastic.Poisson, MeanGap: 4, Count: 1 << 30, Seed: 3,
		Spatial: &stochastic.Spatial{Pattern: stochastic.UniformRandom, W: 2, H: 2, Dests: dests, AllowSelf: true},
	}
	sys, err := platform.Build(platform.Config{
		Cores: 4, Interconnect: platform.XPipes, NoC: noc.Config{Width: 4, Height: 4},
		Kernel: kernel, Shards: x.Shards,
	}, func(_ *platform.System, id int, port ocp.MasterPort) platform.Master {
		return stochastic.New(id, scfg, port)
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableGuard(cfg)
	return sys
}
