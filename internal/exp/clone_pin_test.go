package exp

import (
	"fmt"
	"path/filepath"
	"testing"

	"noctg/internal/ocp"
	"noctg/internal/platform"
	"noctg/internal/prog"
	"noctg/internal/simtest"
	"noctg/internal/stochastic"
)

// The cloning baseline of Section 3, end to end: traces of MPMatrix
// recorded on AMBA are replayed at their recorded timestamps by
// BuildClone, on AMBA and on ×pipes. No other golden or digest holds a
// cloning row, so this is the one check that the baseline replays the same
// schedule.

var clonePinPath = filepath.Join("testdata", "clone_pin.json")

// cloneReplay is what one replay pins.
type cloneReplay struct {
	Makespan     uint64 `json:"makespan"`
	Drift        uint64 `json:"drift"` // summed issue drift
	Transactions uint64 `json:"transactions"`
}

// cloneCampaign records the traces once and renders, on each row's kernel
// and shard count, every replay's makespan, drift and completed
// transactions.
func cloneCampaign(t *testing.T) simtest.Campaign {
	specs := []*prog.Spec{prog.MPMatrix(4, 8), prog.MPMatrix(2, 8)}
	traces := make([][]ocp.Log, len(specs))
	for i, spec := range specs {
		ref, err := RunReference(spec, DefaultOptions(), true)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range ref.Traces {
			traces[i] = append(traces[i], tr.Log)
		}
	}
	return func(t *testing.T, x simtest.Exec) []byte {
		k, err := platform.ParseKernel(x.Kernel)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]cloneReplay{}
		for i, spec := range specs {
			for _, fabric := range []platform.Interconnect{platform.AMBA, platform.XPipes} {
				name := fmt.Sprintf("%s%dP/%s", spec.Name, spec.Cores, fabric)
				cfg := platform.Config{Cores: spec.Cores, Interconnect: fabric, Kernel: k, Shards: x.Shards}
				sys, err := platform.BuildClone(cfg, traces[i])
				if err != nil {
					t.Fatal(err)
				}
				makespan, err := sys.Run(spec.MaxCycles)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				r := cloneReplay{Makespan: makespan}
				counters := sys.Stats.CounterSnapshot()
				for j, m := range sys.Masters {
					r.Drift += m.(*stochastic.Generator).Drift
					r.Transactions += counters[fmt.Sprintf("master%d/transactions", j)]
				}
				got[name] = r
			}
		}
		return simtest.JSON(t, got)
	}
}

// TestClonePin: the replays hold on every kernel and shard count (AMBA
// ignores the shard count), and the reference is the clone pin.
func TestClonePin(t *testing.T) {
	ref := simtest.Differential(t, "clone replay", simtest.Kernel|simtest.Shards, cloneCampaign(t))
	simtest.Pin(t, "clone_pin", clonePinPath, ref)
}
