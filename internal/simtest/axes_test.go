package simtest

import (
	"fmt"
	"strings"
	"testing"
)

// TestRowsCover pins the covering set: the reference comes first and every
// value of every varied axis appears in some row, while the full product
// holds every combination exactly once.
func TestRowsCover(t *testing.T) {
	all := Kernel | Shards | Workers | Resume
	t.Setenv(axesEnv, "")
	rows := Rows(t, all)
	if rows[0] != Reference() {
		t.Fatalf("first row %v, want the reference %v", rows[0], Reference())
	}
	seen := map[string]bool{}
	for _, x := range rows {
		seen["k"+x.Kernel] = true
		seen[fmt.Sprint("s", x.Shards)] = true
		seen[fmt.Sprint("w", x.Workers)] = true
		seen[fmt.Sprint("c", x.Cut)] = true
		if x.Kernel != Table.Kernels[0] && x.Shards == 0 && x.Workers == 1 && x.Cut == 0 {
			seen["single "+x.Kernel] = true
		}
	}
	for _, k := range Table.Kernels {
		if !seen["k"+k] || (k != Table.Kernels[0] && !seen["single "+k]) {
			t.Errorf("kernel %s missing from the covering rows (or not on one engine)", k)
		}
	}
	for _, axis := range []struct {
		p  string
		vs []int
	}{{"s", Table.Shards}, {"w", Table.Workers}, {"c", Table.ResumeCuts}} {
		for _, v := range axis.vs {
			if !seen[fmt.Sprint(axis.p, v)] {
				t.Errorf("%s=%d missing from the covering rows", axis.p, v)
			}
		}
	}
	if kernelOnly := Rows(t, Kernel); len(kernelOnly) != len(Table.Kernels) {
		t.Errorf("a kernel-only campaign runs %d rows, want %d", len(kernelOnly), len(Table.Kernels))
	}
	checkRotated(t)

	t.Setenv(axesEnv, "full")
	full := Rows(t, all)
	want := len(Table.Kernels) * len(Table.Shards) * len(Table.Workers) * len(Table.ResumeCuts)
	distinct := map[Exec]bool{}
	for _, x := range full {
		distinct[x] = true
	}
	if len(full) != want || len(distinct) != want || full[0] != Reference() {
		t.Fatalf("full product: %d rows (%d distinct), want %d with the reference first", len(full), len(distinct), want)
	}
	if kernelOnly := Rows(t, Kernel); len(kernelOnly) != len(Table.Kernels) {
		t.Errorf("a full kernel-only campaign runs %d rows, want %d", len(kernelOnly), len(Table.Kernels))
	}
	checkRotated(t)
}

// checkRotated: a rotated campaign leaves out the rows that differ from the
// reference in the kernel alone, yet still runs every kernel.
func checkRotated(t *testing.T) {
	t.Helper()
	kernels := map[string]bool{}
	for _, x := range Rows(t, Kernel|Shards|Rotated)[1:] {
		if kernelOnly(x) {
			t.Errorf("rotated campaign runs the kernel-only row %v", x)
		}
		kernels[x.Kernel] = true
	}
	if len(kernels) != len(Table.Kernels) {
		t.Errorf("rotated campaign runs kernels %v, want all of %v", kernels, Table.Kernels)
	}
}

// TestFirstDiffPointsAtTheDivergence: the failure report names the first
// differing byte and shows both sides around it.
func TestFirstDiffPointsAtTheDivergence(t *testing.T) {
	got := firstDiff([]byte("makespan 1200"), []byte("makespan 1210"))
	want := "first difference at byte 11 of 13 (want 13):\n got …makespan 1200…\nwant …makespan 1210…"
	if got != want {
		t.Errorf("firstDiff = %q, want %q", got, want)
	}
	if got := firstDiff([]byte("ab"), []byte("abcd")); !strings.HasPrefix(got, "first difference at byte 2 of 2 (want 4)") {
		t.Errorf("firstDiff on a prefix = %q", got)
	}
}

// TestSimKernelNamesEveryKernel: every kernel of the table maps onto the
// engine kernel of the same name.
func TestSimKernelNamesEveryKernel(t *testing.T) {
	for _, k := range Table.Kernels {
		if got := (Exec{Kernel: k}).SimKernel().String(); got != k {
			t.Errorf("SimKernel(%s) = %s", k, got)
		}
	}
}
