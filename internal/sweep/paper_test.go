package sweep

import (
	"testing"

	"noctg/internal/exp"
)

func tinySizes() exp.Sizes {
	return exp.Sizes{
		SPMatrixN:      8,
		CacheloopIters: 500,
		MPMatrixN:      8,
		DESBlocks:      2,
		CacheloopCores: []int{2},
		MPMatrixCores:  []int{2},
		DESCores:       []int{3},
	}
}

// TestRunPaperMatchesSequentialHarness pins the port: the parallel paper
// invocation must produce exactly the simulated-cycle results of the
// sequential exp harness.
func TestRunPaperMatchesSequentialHarness(t *testing.T) {
	sizes := tinySizes()
	opt := exp.DefaultOptions()

	res, err := RunPaperSelect(sizes, opt, 8, PaperSelect{Table2: true, CrossCheck: true, Fig2: true})
	if err != nil {
		t.Fatal(err)
	}

	specs := sizes.Specs()
	if len(res.Table2) != len(specs) {
		t.Fatalf("parallel produced %d rows, sequential %d", len(res.Table2), len(specs))
	}
	for i, row := range res.Table2 {
		seq, err := exp.MeasureRow(specs[i], opt)
		if err != nil {
			t.Fatal(err)
		}
		if row.Bench != seq.Bench || row.Cores != seq.Cores ||
			row.CyclesARM != seq.CyclesARM || row.CyclesTG != seq.CyclesTG {
			t.Fatalf("row %d diverged: parallel %+v vs sequential %+v", i, row, seq)
		}
	}

	if len(res.CrossChecks) != 3 {
		t.Fatalf("expected 3 cross-checks, got %d", len(res.CrossChecks))
	}
	for _, cc := range res.CrossChecks {
		if !cc.Equal {
			t.Fatalf("%s: .tgp differs across interconnects: %s", cc.Bench, cc.FirstDiff)
		}
	}

	if res.Fig2a == nil || res.Fig2a.ReadCycles <= res.Fig2a.WriteCycles {
		t.Fatalf("fig2a: blocking reads must be slower than posted writes: %+v", res.Fig2a)
	}
	if res.Fig2b == nil || !res.Fig2b.Reactive() {
		t.Fatalf("fig2b: slower fabric must lengthen the run and grow polls: %+v", res.Fig2b)
	}
}

func TestRunPaperAblationAndOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep in -short mode")
	}
	res, err := RunPaperSelect(tinySizes(), exp.DefaultOptions(), 4,
		PaperSelect{Overhead: true, Ablation: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Overhead == nil || res.Overhead.TraceBytes == 0 {
		t.Fatalf("overhead experiment missing: %+v", res.Overhead)
	}
	if len(res.Fidelity) == 0 || len(res.Arbitration) != 3 {
		t.Fatalf("ablations missing: fidelity %d, arbitration %d",
			len(res.Fidelity), len(res.Arbitration))
	}
}
