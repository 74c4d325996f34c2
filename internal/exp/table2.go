package exp

import (
	"fmt"
	"math"
	"strings"
	"time"

	"noctg/internal/core"
	"noctg/internal/platform"
	"noctg/internal/prog"
)

// Row is one Table 2 line: simulated-cycle accuracy and host-time speedup
// of the TG platform versus the ARM platform. The speedup is measured
// twice: both sides on the selected kernel (Gain), and both sides on the
// strict kernel (GainStrict), which ticks every device every cycle, as the
// paper's simulator did.
type Row struct {
	Bench     string
	Cores     int
	CyclesARM uint64
	CyclesTG  uint64
	ErrorPct  float64
	WallARM   time.Duration
	WallTG    time.Duration
	Gain      float64
	// WallARMStrict, WallTGStrict and GainStrict are the same runs on the
	// strict kernel.
	WallARMStrict time.Duration
	WallTGStrict  time.Duration
	GainStrict    float64
	// TracedWall is the reference run with tracing enabled (overhead exp).
	TracedWall time.Duration
	// TranslateWall is the trace→program conversion time.
	TranslateWall time.Duration
	// TraceBytes is the total serialised trace size.
	TraceBytes int
}

// MeasureRow produces one Table 2 row for a spec:
//
//  1. plain reference run (ARM wall time and cycle count),
//  2. traced reference run (trace collection + overhead metrics),
//  3. translation,
//  4. TG run (TG wall time and cycle count), and
//  5. the plain reference and TG runs again on the strict kernel.
func MeasureRow(spec *prog.Spec, opt Options) (*Row, error) {
	plain, err := RunReference(spec, opt, false)
	if err != nil {
		return nil, err
	}
	strict := opt
	strict.Platform.Kernel = platform.KernelStrict
	plainStrict, err := RunReference(spec, strict, false)
	if err != nil {
		return nil, err
	}
	traced, err := RunReference(spec, opt, true)
	if err != nil {
		return nil, err
	}
	progs, _, twall, err := TranslateAll(spec, traced.Traces,
		core.DefaultTranslateConfig(PollRangesFor(spec)))
	if err != nil {
		return nil, err
	}
	tg, err := RunTG(spec, progs, opt)
	if err != nil {
		return nil, err
	}
	tgStrict, err := RunTG(spec, progs, strict)
	if err != nil {
		return nil, err
	}
	if plainStrict.Makespan != plain.Makespan || tgStrict.Makespan != tg.Makespan {
		return nil, fmt.Errorf("exp: %s/%dP: the %v kernel disagrees with strict (ARM %d vs %d, TG %d vs %d cycles)",
			spec.Name, spec.Cores, opt.Platform.Kernel, plain.Makespan, plainStrict.Makespan, tg.Makespan, tgStrict.Makespan)
	}
	tbytes, err := TraceBytes(traced.Traces)
	if err != nil {
		return nil, err
	}
	row := &Row{
		Bench:         spec.Name,
		Cores:         spec.Cores,
		CyclesARM:     plain.Makespan,
		CyclesTG:      tg.Makespan,
		ErrorPct:      100 * math.Abs(float64(tg.Makespan)-float64(plain.Makespan)) / float64(plain.Makespan),
		WallARM:       plain.Wall,
		WallTG:        tg.Wall,
		WallARMStrict: plainStrict.Wall,
		WallTGStrict:  tgStrict.Wall,
		TracedWall:    traced.Wall,
		TranslateWall: twall,
		TraceBytes:    tbytes,
	}
	row.Gain = gain(plain.Wall, tg.Wall)
	row.GainStrict = gain(plainStrict.Wall, tgStrict.Wall)
	return row, nil
}

// gain is the speedup of a TG run over an ARM run, 0 when unmeasurable.
func gain(arm, tg time.Duration) float64 {
	if tg <= 0 {
		return 0
	}
	return float64(arm) / float64(tg)
}

// Sizes parameterises the Table 2 benchmark set. The defaults give
// makespans in the hundreds of thousands of cycles — smaller than the
// paper's multi-million-cycle runs but in the same contention regimes.
type Sizes struct {
	SPMatrixN      int
	CacheloopIters int
	MPMatrixN      int
	DESBlocks      int
	CacheloopCores []int
	MPMatrixCores  []int
	DESCores       []int
}

// DefaultSizes mirrors the paper's sweep (2–12 processors; DES from 3).
func DefaultSizes() Sizes {
	return Sizes{
		SPMatrixN:      24,
		CacheloopIters: 30_000,
		MPMatrixN:      16,
		DESBlocks:      16,
		CacheloopCores: []int{2, 4, 6, 8, 10, 12},
		MPMatrixCores:  []int{2, 4, 6, 8, 10, 12},
		DESCores:       []int{3, 4, 6, 8, 10, 12},
	}
}

// QuickSizes is a fast variant for tests and smoke runs.
func QuickSizes() Sizes {
	return Sizes{
		SPMatrixN:      8,
		CacheloopIters: 2_000,
		MPMatrixN:      8,
		DESBlocks:      2,
		CacheloopCores: []int{2, 4},
		MPMatrixCores:  []int{2, 4},
		DESCores:       []int{3},
	}
}

// Specs expands the sizes into the full benchmark list, in Table 2 order.
func (s Sizes) Specs() []*prog.Spec {
	specs := []*prog.Spec{prog.SPMatrix(s.SPMatrixN)}
	for _, p := range s.CacheloopCores {
		specs = append(specs, prog.Cacheloop(p, s.CacheloopIters))
	}
	for _, p := range s.MPMatrixCores {
		specs = append(specs, prog.MPMatrix(p, s.MPMatrixN))
	}
	for _, p := range s.DESCores {
		specs = append(specs, prog.DES(p, s.DESBlocks))
	}
	return specs
}

// FormatTable2 renders rows in the paper's Table 2 layout, with the gain
// on the selected kernel beside the gain with both sides on the strict
// kernel, the paper's like-for-like comparison.
func FormatTable2(rows []*Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %4s | %12s %12s %7s | %10s %10s %6s %11s\n",
		"benchmark", "#IPs", "cycles ARM", "cycles TG", "error", "time ARM", "time TG", "gain", "gain strict")
	fmt.Fprintln(&b, strings.Repeat("-", 100))
	last := ""
	for _, r := range rows {
		name := r.Bench
		if name == last {
			name = ""
		} else {
			last = r.Bench
		}
		fmt.Fprintf(&b, "%-10s %3dP | %12d %12d %6.2f%% | %10s %10s %5.2fx %10.2fx\n",
			name, r.Cores, r.CyclesARM, r.CyclesTG, r.ErrorPct,
			roundWall(r.WallARM), roundWall(r.WallTG), r.Gain, r.GainStrict)
	}
	return b.String()
}

// roundWall rounds a wall-clock time to three significant digits, so a
// 250 µs replay prints as 250µs beside a 1.23s reference run instead of
// rounding to 0s at a fixed millisecond resolution.
func roundWall(d time.Duration) time.Duration {
	unit := time.Duration(1)
	for d/unit >= 1000 {
		unit *= 10
	}
	return d.Round(unit)
}
