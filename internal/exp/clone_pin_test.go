package exp

import (
	"fmt"
	"testing"

	"noctg/internal/ocp"
	"noctg/internal/platform"
	"noctg/internal/prog"
	"noctg/internal/simtest"
	"noctg/internal/stochastic"
)

// TestClonePin pins the cloning baseline of Section 3 end to end: traces
// of MPMatrix recorded on AMBA are replayed at their recorded timestamps
// by BuildClone, on AMBA and on ×pipes, and the makespan, the summed issue
// drift and the completed transactions must hold on every kernel (and,
// on ×pipes, with and without sharding). No golden or digest holds a
// cloning row, so this is the one check that the baseline replays the
// same schedule.
func TestClonePin(t *testing.T) {
	type want struct{ makespan, drift, txns uint64 }
	cases := []struct {
		spec        *prog.Spec
		amba, xpipe want
	}{
		{prog.MPMatrix(4, 8), want{16490, 0, 2647}, want{16594, 1553044, 2647}},
		{prog.MPMatrix(2, 8), want{25650, 0, 1697}, want{25725, 54948, 1697}},
	}
	for _, c := range cases {
		ref, err := RunReference(c.spec, DefaultOptions(), true)
		if err != nil {
			t.Fatal(err)
		}
		events := make([][]ocp.Event, len(ref.Traces))
		for i, tr := range ref.Traces {
			events[i] = tr.Events
		}
		for _, kernel := range simtest.Table.Kernels {
			k, err := platform.ParseKernel(kernel)
			if err != nil {
				t.Fatal(err)
			}
			rows := []struct {
				fabric platform.Interconnect
				shards int
				want   want
			}{
				{platform.AMBA, 0, c.amba},
				{platform.XPipes, 0, c.xpipe},
				{platform.XPipes, 2, c.xpipe},
			}
			for _, r := range rows {
				name := fmt.Sprintf("%s%dP/%s/%s/shards=%d", c.spec.Name, c.spec.Cores, r.fabric, kernel, r.shards)
				cfg := platform.Config{Cores: c.spec.Cores, Interconnect: r.fabric, Kernel: k, Shards: r.shards}
				sys, err := platform.BuildClone(cfg, events)
				if err != nil {
					t.Fatal(err)
				}
				makespan, err := sys.Run(c.spec.MaxCycles)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got := want{makespan: makespan}
				counters := sys.Stats.CounterSnapshot()
				for i, m := range sys.Masters {
					got.drift += m.(*stochastic.Generator).Drift
					got.txns += counters[fmt.Sprintf("master%d/transactions", i)]
				}
				if got != r.want {
					t.Errorf("%s: (makespan, drift, transactions) = %v, want %v", name, got, r.want)
				}
			}
		}
	}
}
