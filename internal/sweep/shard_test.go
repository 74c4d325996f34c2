package sweep

import (
	"math/rand"
	"testing"

	"noctg/internal/platform"
	"noctg/internal/simtest"
)

// TestShardDifferentialRandom is aimed at the two rules that make the shard
// count result-neutral. Seeded random closed stochastic workloads on
// back-pressured ×pipes fabrics (buffer_flits 1–4, where flow control
// decides every cycle) run unphased and under three phased plans sized so
// the workload completes in warm-up, in the middle of an epoch and in the
// drain (where the stop rule decides the final cycle), on every kernel and
// shard count.
func TestShardDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(20261001))
	strict := Runner{Kernel: platform.KernelStrict}
	// Each trial is one base point under four plans: unphased, then
	// completing in warm-up, mid-epoch and in the drain.
	trials := make([][]Point, 5)
	for trial := range trials {
		base := randomPoint(rng)
		base.ID = 4 * trial
		base.Workload.Count = 40 + rng.Intn(80)
		base.Fabric = Fabric{
			Interconnect: FabricXPipes,
			Topology:     []string{"", "torus"}[rng.Intn(2)],
			MeshWidth:    4, MeshHeight: 3 + rng.Intn(2),
			BufferFlits: 1 + rng.Intn(4),
		}
		// end is where the unphased run stops; odd window lengths keep the
		// phase edges off the 32-cycle completion boundaries.
		end := runPoints(t, strict, []Point{base})[0].Engine.Cycles
		for i, m := range []*Measure{
			nil,
			{WarmupCycles: end + 101, Epochs: 1},
			{WarmupCycles: end / 5, EpochCycles: end/3 + 7, Epochs: 4},
			{WarmupCycles: end / 5, EpochCycles: end/3 + 7, Epochs: 1, DrainCycles: 2*end + 13},
		} {
			p := base
			p.ID += i
			p.Measure = m
			trials[trial] = append(trials[trial], p)
		}
	}
	simtest.Differential(t, "random back-pressured points", simtest.Kernel|simtest.Shards|simtest.Split, func(t *testing.T, x simtest.Exec) []byte {
		var out []byte
		for _, points := range simtest.Items(x, trials) {
			results := runPoints(t, execRunner(t, x), points)
			warm, mid, drain := results[1].Phases, results[2].Phases, results[3].Phases
			if !warm.Completed || warm.MeasureCycles != 0 {
				t.Fatalf("point %d: warm-up plan did not complete in warm-up: %+v", results[1].ID, warm)
			}
			if last := mid.Epochs[len(mid.Epochs)-1]; !mid.Completed || mid.DrainCycles != 0 ||
				last.EndCycle-last.StartCycle >= points[2].Measure.EpochCycles {
				t.Fatalf("point %d: mid-epoch plan did not complete mid-epoch: %+v", results[2].ID, mid)
			}
			if !drain.Completed || drain.DrainCycles == 0 {
				t.Fatalf("point %d: drain plan did not complete in the drain: %+v", results[3].ID, drain)
			}
			out = append(out, renderResults(t, results)...)
		}
		return out
	})
}

// TestValidateShards bounds the axis at both ends.
func TestValidateShards(t *testing.T) {
	for _, ok := range []int{0, 1, MaxShards} {
		if err := ValidateShards(ok); err != nil {
			t.Fatalf("ValidateShards(%d) = %v", ok, err)
		}
	}
	for _, bad := range []int{-1, MaxShards + 1} {
		if err := ValidateShards(bad); err == nil {
			t.Fatalf("ValidateShards(%d) accepted", bad)
		}
	}
}
