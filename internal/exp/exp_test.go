package exp

import (
	"strings"
	"testing"
	"time"

	"noctg/internal/amba"
	"noctg/internal/layout"
	"noctg/internal/platform"
	"noctg/internal/prog"
)

func TestMeasureRowSPMatrixAccuracy(t *testing.T) {
	row, err := MeasureRow(prog.SPMatrix(8), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if row.ErrorPct > 1.0 {
		t.Fatalf("SP matrix TG error %.3f%% (ARM %d vs TG %d cycles)",
			row.ErrorPct, row.CyclesARM, row.CyclesTG)
	}
}

func TestMeasureRowCacheloopAccuracy(t *testing.T) {
	row, err := MeasureRow(prog.Cacheloop(2, 2000), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if row.ErrorPct > 0.5 {
		t.Fatalf("cacheloop TG error %.3f%% (ARM %d vs TG %d)",
			row.ErrorPct, row.CyclesARM, row.CyclesTG)
	}
}

func TestMeasureRowMPMatrixAccuracy(t *testing.T) {
	row, err := MeasureRow(prog.MPMatrix(4, 8), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if row.ErrorPct > 3.0 {
		t.Fatalf("MP matrix TG error %.3f%% (ARM %d vs TG %d)",
			row.ErrorPct, row.CyclesARM, row.CyclesTG)
	}
}

func TestMeasureRowDESAccuracy(t *testing.T) {
	row, err := MeasureRow(prog.DES(2, 2), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if row.ErrorPct > 3.0 {
		t.Fatalf("DES TG error %.3f%% (ARM %d vs TG %d)",
			row.ErrorPct, row.CyclesARM, row.CyclesTG)
	}
}

func TestCrossInterconnectTGPEquality(t *testing.T) {
	// Section 6, experiment 1: identical .tgp programs from AMBA and
	// ×pipes traces, even though the reference makespans differ.
	for _, spec := range []*prog.Spec{
		prog.Cacheloop(2, 500),
		prog.MPMatrix(2, 8),
		prog.DES(2, 2),
	} {
		res, err := CrossCheck(spec, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if !res.Equal {
			t.Fatalf("%s: .tgp differs across interconnects: %s", spec.Name, res.FirstDiff)
		}
		if res.MakespanA == res.MakespanX {
			t.Logf("%s: warning: identical makespans on both fabrics (%d)", spec.Name, res.MakespanA)
		}
	}
}

func TestPollGapMatchesMeasuredConstant(t *testing.T) {
	// The per-range poll-gap constants supplied to the translator must
	// equal the real poll periods of the benchmark loops, or single-poll
	// runs would translate differently from multi-poll runs across
	// interconnects.
	spec := prog.MPMatrix(4, 8)
	ref, err := RunReference(spec, DefaultOptions(), true)
	if err != nil {
		t.Fatal(err)
	}
	semRange := layout.SemRange()
	flags := map[uint32]bool{}
	for _, w := range spec.PollWords {
		flags[w] = true
	}
	foundSem, foundFlag := false, false
	for _, tr := range ref.Traces {
		evs := tr.Events
		for i := 0; i+1 < len(evs); i++ {
			if !evs[i].Cmd.IsRead() || !evs[i+1].Cmd.IsRead() || evs[i+1].Addr != evs[i].Addr {
				continue
			}
			gap := evs[i+1].Assert - evs[i].Resp
			switch {
			case semRange.Contains(evs[i].Addr):
				if gap != prog.SemPollGap {
					t.Fatalf("semaphore poll gap %d, prog.SemPollGap = %d", gap, prog.SemPollGap)
				}
				foundSem = true
			case flags[evs[i].Addr]:
				if gap != prog.FlagPollGap {
					t.Fatalf("flag poll gap %d, prog.FlagPollGap = %d", gap, prog.FlagPollGap)
				}
				foundFlag = true
			}
		}
	}
	if !foundSem || !foundFlag {
		t.Fatalf("insufficient poll coverage (sem=%v flag=%v)", foundSem, foundFlag)
	}
}

func TestAblationGeneratorsReactiveWins(t *testing.T) {
	// Trace on AMBA, replay on ×pipes: the reactive TG must predict the
	// ground-truth makespan better than cloning.
	source := DefaultOptions()
	target := DefaultOptions()
	target.Platform.Interconnect = platform.XPipes
	rows, err := AblationGenerators(prog.MPMatrix(2, 8), source, target)
	if err != nil {
		t.Fatal(err)
	}
	byKind := map[GeneratorKind]*FidelityRow{}
	for _, r := range rows {
		byKind[r.Kind] = r
	}
	re := byKind[Reactive]
	if re == nil || !re.Completed {
		t.Fatal("reactive TG failed to complete on the target fabric")
	}
	if re.ErrorPct > 15 {
		t.Fatalf("reactive TG error %.1f%% vs ground truth", re.ErrorPct)
	}
	cl := byKind[Cloning]
	if cl.Completed && cl.ErrorPct < re.ErrorPct {
		t.Fatalf("cloning (%.2f%%) outperformed reactive (%.2f%%)", cl.ErrorPct, re.ErrorPct)
	}
}

func TestMeasureRowOnXPipes(t *testing.T) {
	// The TG methodology must hold when the *reference* platform is the
	// NoC, too — trace on ×pipes, replay on ×pipes.
	opt := DefaultOptions()
	opt.Platform.Interconnect = platform.XPipes
	row, err := MeasureRow(prog.MPMatrix(2, 8), opt)
	if err != nil {
		t.Fatal(err)
	}
	if row.ErrorPct > 3.0 {
		t.Fatalf("xpipes TG error %.3f%% (ARM %d vs TG %d)",
			row.ErrorPct, row.CyclesARM, row.CyclesTG)
	}
}

func TestAblationArbitration(t *testing.T) {
	rows, err := AblationArbitration(prog.MPMatrix(4, 8), DefaultOptions(),
		[]amba.Policy{amba.RoundRobin, amba.FixedPriority, amba.TDMA})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0].Makespan == 0 || rows[1].Makespan == 0 || rows[2].Makespan == 0 {
		t.Fatalf("arbitration rows %+v", rows)
	}
	if rows[2].Policy != "tdma" {
		t.Fatalf("third row should be tdma: %+v", rows[2])
	}
	// Fixed priority must starve someone harder than round-robin.
	if rows[1].MaxWait < rows[0].MaxWait {
		t.Logf("note: fixed-priority max wait %d below round-robin %d", rows[1].MaxWait, rows[0].MaxWait)
	}
}

func TestOverheadMetrics(t *testing.T) {
	res, err := MeasureOverhead(prog.MPMatrix(2, 8), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceBytes == 0 {
		t.Fatal("no trace bytes recorded")
	}
	if res.TracedWall == 0 || res.PlainWall == 0 {
		t.Fatal("wall times not measured")
	}
}

func TestQuickTable2Formats(t *testing.T) {
	// A cache-resident replay takes 100–300 µs: the time columns keep their
	// significant digits at every magnitude instead of rounding to 0s.
	out := FormatTable2([]*Row{{Bench: "cacheloop", Cores: 2,
		WallARM: 81234567 * time.Nanosecond, WallTG: 250 * time.Microsecond, Gain: 324.94}})
	for _, want := range []string{" 250µs ", " 81.2ms "} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, " 0s ") {
		t.Fatalf("a sub-millisecond time printed as 0s:\n%s", out)
	}
	if testing.Short() {
		t.Skip("table sweep in -short mode")
	}
	var rows []*Row
	for _, spec := range QuickSizes().Specs() {
		row, err := MeasureRow(spec, DefaultOptions())
		if err != nil {
			t.Fatalf("%s/%dP: %v", spec.Name, spec.Cores, err)
		}
		rows = append(rows, row)
	}
	out = FormatTable2(rows)
	for _, want := range []string{"spmatrix", "cacheloop", "mpmatrix", "des", "gain", "gain strict"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
	for _, r := range rows {
		if r.ErrorPct > 5 {
			t.Fatalf("row %s/%dP error %.2f%% too high\n%s", r.Bench, r.Cores, r.ErrorPct, out)
		}
		if r.Gain <= 0 || r.GainStrict <= 0 {
			t.Fatalf("row %s/%dP: gain %.2f, strict gain %.2f not measured\n%s", r.Bench, r.Cores, r.Gain, r.GainStrict, out)
		}
	}
}

func TestLatencyDistributionFidelity(t *testing.T) {
	// Beyond the makespan: the TG platform must reproduce the per-read
	// latency profile of the real cores (same transaction mix hitting the
	// same fabric at the same times).
	arm, tg, err := LatencyComparison(prog.MPMatrix(4, 8), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if arm.Reads == 0 || tg.Reads == 0 {
		t.Fatal("no read latencies observed")
	}
	if e := MeanErrorPct(arm, tg); e > 5 {
		t.Fatalf("mean latency error %.2f%% (ARM %s vs TG %s)", e, arm, tg)
	}
	// Transaction counts may differ only by regenerated polling.
	diff := int64(arm.Reads) - int64(tg.Reads)
	if diff < 0 {
		diff = -diff
	}
	if float64(diff) > 0.1*float64(arm.Reads) {
		t.Fatalf("read count diverged: ARM %d vs TG %d", arm.Reads, tg.Reads)
	}
}

func TestMeasureRowPipelineAccuracy(t *testing.T) {
	// The pipeline workload is pure fine-grained handshaking — the hardest
	// reactive case. The TG platform must still track the reference.
	row, err := MeasureRow(prog.Pipeline(3, 8), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if row.ErrorPct > 5.0 {
		t.Fatalf("pipeline TG error %.3f%% (ARM %d vs TG %d)",
			row.ErrorPct, row.CyclesARM, row.CyclesTG)
	}
}

func TestPipelineCrossInterconnect(t *testing.T) {
	res, err := CrossCheck(prog.Pipeline(3, 6), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal {
		t.Fatalf("pipeline .tgp differs across interconnects: %s", res.FirstDiff)
	}
}
