package sweep

import (
	"encoding/json"
	"io"
	"reflect"
	"testing"

	"noctg/internal/exp"
	"noctg/internal/platform"
	"noctg/internal/simtest"
)

// execRunner is the Runner of one execution row.
func execRunner(t *testing.T, x simtest.Exec) Runner {
	t.Helper()
	kernel, err := platform.ParseKernel(x.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	return Runner{Kernel: kernel, Shards: x.Shards, Workers: x.Workers}
}

// runPoints runs points on one row and requires every point to succeed.
func runPoints(t *testing.T, r Runner, points []Point) []Result {
	t.Helper()
	results, err := r.Run(points)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if res.Err != "" {
			t.Fatalf("point %d (%s @ %s): %s", res.ID, res.Workload, res.Fabric, res.Err)
		}
	}
	return results
}

// pointsCampaign renders the JSON artifact of the points each row runs.
// The CSV artifact is a projection of the same Result fields, so equal
// JSON means equal CSV.
func pointsCampaign(points []Point) simtest.Campaign {
	return func(t *testing.T, x simtest.Exec) []byte {
		return renderResults(t, runPoints(t, execRunner(t, x), simtest.Items(x, points)))
	}
}

// curvesCampaign renders the JSON artifact of specs on each row.
func curvesCampaign(specs ...CurveSpec) simtest.Campaign {
	return func(t *testing.T, x simtest.Exec) []byte {
		curves, err := execRunner(t, x).RunCurves(specs)
		if err != nil {
			t.Fatal(err)
		}
		return simtest.Render(t, func(w io.Writer) error { return WriteCurvesJSON(w, curves) })
	}
}

// TestKernelDifferentialGrid: every DefaultGrid point — the TG replays of
// the paper's programs among them — serialises the same artifact under
// every kernel and shard count.
func TestKernelDifferentialGrid(t *testing.T) {
	simtest.Differential(t, "default grid", simtest.Kernel|simtest.Shards|simtest.Split, pointsCampaign(DefaultGrid().Expand()))
}

// TestKernelDifferentialScenarios: every spatial pattern × fabric topology
// point of ScenarioGrid serialises the same artifact under every kernel,
// and the reference is the committed golden.
func TestKernelDifferentialScenarios(t *testing.T) {
	ref := simtest.Differential(t, "scenario grid", simtest.Kernel, pointsCampaign(ScenarioGrid().Expand()))
	simtest.Pin(t, "scenarios", goldenPath("scenarios"), ref)
}

// TestShardDifferentialScenarios: the same grid serialises the same
// artifact under every shard count, the kernel rotating. AMBA points
// ignore the shard count, which is part of the property. The kernels on
// the single engine are TestKernelDifferentialScenarios' rows.
func TestShardDifferentialScenarios(t *testing.T) {
	simtest.Differential(t, "scenario grid", simtest.Kernel|simtest.Shards|simtest.Split|simtest.Rotated, pointsCampaign(ScenarioGrid().Expand()))
}

// TestKernelDifferentialPaper: every paper experiment family reports the
// same simulated state — makespans, poll counts, program equality,
// everything but host wall-clock — under every kernel.
func TestKernelDifferentialPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("paper differential is a long test")
	}
	sel := PaperSelect{Table2: true, CrossCheck: true, Overhead: true, Ablation: true, Fig2: true}
	simtest.Differential(t, "paper", simtest.Kernel, func(t *testing.T, x simtest.Exec) []byte {
		opt := exp.DefaultOptions()
		opt.Platform.Kernel = execRunner(t, x).Kernel
		res, err := RunPaperSelect(tinySizes(), opt, 0, sel)
		if err != nil {
			t.Fatal(err)
		}
		state := struct {
			Table2      []goldenRow
			CrossChecks []*exp.CrossCheckResult
			Overhead    [2]int
			Fidelity    []*exp.FidelityRow
			Arbitration []*exp.ArbitrationRow
			Fig2a       *exp.Fig2aResult
			Fig2b       *exp.Fig2bResult
		}{table2Rows(res.Table2), res.CrossChecks, [2]int{res.Overhead.TraceBytes, res.Overhead.Events},
			res.Fidelity, res.Arbitration, res.Fig2a, res.Fig2b}
		data, err := json.Marshal(state)
		if err != nil {
			t.Fatal(err)
		}
		return data
	})
}

// TestKernelDefaultIsEvent pins the default: the zero KernelMode is the
// event kernel, and a sweep Runner that leaves it zero behaves exactly like
// an explicit event-kernel selection.
func TestKernelDefaultIsEvent(t *testing.T) {
	if platform.KernelMode(0) != platform.KernelEvent {
		t.Fatal("zero KernelMode must be the event kernel")
	}
	points := DefaultGrid().Expand()[:2]
	auto, err := Runner{}.Run(points)
	if err != nil {
		t.Fatal(err)
	}
	event, err := Runner{Kernel: platform.KernelEvent}.Run(points)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(auto, event) {
		t.Fatal("zero-value Runner kernel must resolve to event")
	}
}
