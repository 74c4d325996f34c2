package sim

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// timedDone is a sleeper that does nothing until cycle at, then flips its
// done flag — the minimal workload for phase-boundary tests.
type timedDone struct {
	at   uint64
	done bool
}

func (d *timedDone) Tick(c uint64) {
	if c >= d.at {
		d.done = true
	}
}

func (d *timedDone) NextWake(now uint64) uint64 {
	if d.done {
		return WakeNever
	}
	if d.at > now {
		return d.at
	}
	return now
}

// phaseTrace records every boundary callback of one phased run.
func phaseTrace(t *testing.T, kernel Kernel, p Phases, maxCycles, doneAt uint64) (PhasedResult, []string) {
	t.Helper()
	e := NewEngine(Clock{})
	d := &timedDone{at: doneAt}
	e.Add(d)
	e.SetKernel(kernel)
	var trace []string
	p.AfterWarmup = func(now uint64) { trace = append(trace, fmt.Sprintf("warmup@%d", now)) }
	p.AfterEpoch = func(epoch int, start, end uint64) bool {
		trace = append(trace, fmt.Sprintf("epoch%d[%d,%d)", epoch, start, end))
		return true
	}
	res, err := e.RunPhased(p, maxCycles, func() bool { return d.done })
	if err != nil {
		t.Fatalf("kernel %v: %v", kernel, err)
	}
	return res, trace
}

// TestRunPhasedBoundariesKernelIdentical pins the forced-wake-point
// contract: warmup and epoch boundaries land on byte-identical cycles
// under the strict and event kernels, even when the only device
// sleeps across every boundary.
func TestRunPhasedBoundariesKernelIdentical(t *testing.T) {
	p := Phases{Warmup: 100, Epoch: 150, MaxEpochs: 3, Stride: 32}
	wantRes, wantTrace := phaseTrace(t, KernelStrict, p, 10_000, 5_000)
	want := []string{"warmup@100", "epoch0[100,250)", "epoch1[250,400)", "epoch2[400,550)"}
	if !reflect.DeepEqual(wantTrace, want) {
		t.Fatalf("strict boundaries = %v, want %v", wantTrace, want)
	}
	res, trace := phaseTrace(t, KernelEvent, p, 10_000, 5_000)
	if !reflect.DeepEqual(trace, wantTrace) {
		t.Fatalf("event boundaries %v != strict %v", trace, wantTrace)
	}
	if res != wantRes {
		t.Fatalf("event result %+v != strict %+v", res, wantRes)
	}
	if wantRes.Completed || wantRes.Epochs != 3 || wantRes.WarmupCycles != 100 || wantRes.MeasureCycles != 450 {
		t.Fatalf("phased result = %+v", wantRes)
	}
}

func TestRunPhasedCompletesInWarmup(t *testing.T) {
	for _, k := range []Kernel{KernelStrict, KernelEvent} {
		res, trace := phaseTrace(t, k, Phases{Warmup: 500, Epoch: 100, MaxEpochs: 4}, 10_000, 40)
		if !res.Completed || res.CompletedIn != PhaseWarmup || res.Epochs != 0 {
			t.Fatalf("kernel %v: %+v", k, res)
		}
		// The warmup boundary callback still runs so measurement state is
		// well-defined, but no epochs follow.
		if len(trace) != 1 {
			t.Fatalf("kernel %v: trace %v", k, trace)
		}
	}
}

func TestRunPhasedCompletesMidEpoch(t *testing.T) {
	for _, k := range []Kernel{KernelStrict, KernelEvent} {
		res, trace := phaseTrace(t, k, Phases{Warmup: 100, Epoch: 200, MaxEpochs: 10, Stride: 1}, 10_000, 450)
		if !res.Completed || res.CompletedIn != PhaseMeasure {
			t.Fatalf("kernel %v: %+v", k, res)
		}
		// Epochs at [100,300), [300,451): completion at cycle 450 is
		// detected after executing cycle 450 (stride 1), ending the final
		// partial epoch at 451.
		want := []string{"warmup@100", "epoch0[100,300)", "epoch1[300,451)"}
		if !reflect.DeepEqual(trace, want) {
			t.Fatalf("kernel %v: trace %v, want %v", k, trace, want)
		}
	}
}

func TestRunPhasedCompletesInDrain(t *testing.T) {
	e := NewEngine(Clock{})
	d := &timedDone{at: 900}
	e.Add(d)
	res, err := e.RunPhased(Phases{Warmup: 100, Epoch: 200, MaxEpochs: 2, Drain: 5_000},
		10_000, func() bool { return d.done })
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.CompletedIn != PhaseDrain || res.Epochs != 2 {
		t.Fatalf("%+v", res)
	}
	if res.DrainCycles == 0 || res.DrainCycles > 5_000 {
		t.Fatalf("drain cycles = %d", res.DrainCycles)
	}
}

func TestRunPhasedDrainExhaustedIsNotAnError(t *testing.T) {
	e := NewEngine(Clock{})
	d := &timedDone{at: 1 << 40}
	e.Add(d)
	res, err := e.RunPhased(Phases{Epoch: 100, MaxEpochs: 2, Drain: 50},
		10_000, func() bool { return d.done })
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed || res.DrainCycles != 50 {
		t.Fatalf("%+v", res)
	}
}

func TestRunPhasedBudgetTruncationIsAnError(t *testing.T) {
	e := NewEngine(Clock{})
	d := &timedDone{at: 1 << 40}
	e.Add(d)
	// Plan wants 4×100-cycle epochs after 50 warmup; budget covers two.
	_, err := e.RunPhased(Phases{Warmup: 50, Epoch: 100, MaxEpochs: 4},
		250, func() bool { return d.done })
	if !errors.Is(err, ErrMaxCycles) {
		t.Fatalf("err = %v, want ErrMaxCycles", err)
	}
}

func TestRunPhasedAfterEpochStops(t *testing.T) {
	e := NewEngine(Clock{})
	d := &timedDone{at: 1 << 40}
	e.Add(d)
	p := Phases{Epoch: 100, MaxEpochs: 10}
	p.AfterEpoch = func(epoch int, _, _ uint64) bool { return epoch < 2 }
	res, err := e.RunPhased(p, 10_000, func() bool { return d.done })
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs != 3 {
		t.Fatalf("epochs = %d, want 3 (controller stop after the third)", res.Epochs)
	}
}

// TestRunPhasedZeroConfigMatchesRunEvery pins the compatibility anchor:
// the zero phase configuration is exactly one open measurement window, so
// it must execute the same cycles as a plain RunEvery.
func TestRunPhasedZeroConfigMatchesRunEvery(t *testing.T) {
	for _, k := range []Kernel{KernelStrict, KernelEvent} {
		run := func(phased bool) uint64 {
			e := NewEngine(Clock{})
			d := &timedDone{at: 777}
			e.Add(d)
			e.SetKernel(k)
			if phased {
				if _, err := e.RunPhased(Phases{Stride: 32}, 10_000, func() bool { return d.done }); err != nil {
					t.Fatal(err)
				}
			} else {
				if _, err := e.RunEvery(10_000, 32, func() bool { return d.done }); err != nil {
					t.Fatal(err)
				}
			}
			return e.Cycle()
		}
		if a, b := run(true), run(false); a != b {
			t.Fatalf("kernel %v: phased ends at %d, RunEvery at %d", k, a, b)
		}
	}
}
