package sim

import (
	"errors"
	"testing"
)

func TestRunEveryStrideDetection(t *testing.T) {
	e := NewEngine(Clock{})
	n := 0
	e.Add(DeviceFunc(func(uint64) { n++ }))
	// Condition true after 10 cycles, stride 8 → detected at cycle 16.
	ran, err := e.RunEvery(1000, 8, func() bool { return n >= 10 })
	if err != nil {
		t.Fatal(err)
	}
	if ran != 16 {
		t.Fatalf("detected after %d cycles, want 16 (stride rounding)", ran)
	}
}

func TestRunEveryChecksFinalCycle(t *testing.T) {
	// The predicate is evaluated after the last budgeted cycle even when
	// it does not fall on a stride boundary.
	e := NewEngine(Clock{})
	n := 0
	e.Add(DeviceFunc(func(uint64) { n++ }))
	ran, err := e.RunEvery(10, 64, func() bool { return n >= 10 })
	if err != nil {
		t.Fatalf("final-cycle check missed: %v", err)
	}
	if ran != 10 {
		t.Fatalf("ran %d", ran)
	}
}

func TestRunEverySingleEvaluationPerBoundary(t *testing.T) {
	// done() must be evaluated exactly once per stride boundary: when the
	// budget's final cycle lands on a boundary, the old post-loop check
	// re-evaluated it a second time.
	e := NewEngine(Clock{})
	e.Add(DeviceFunc(func(uint64) {}))
	evals := 0
	_, err := e.RunEvery(20, 4, func() bool { evals++; return false })
	if !errors.Is(err, ErrMaxCycles) {
		t.Fatalf("err = %v", err)
	}
	if evals != 5 {
		t.Fatalf("done() evaluated %d times, want 5 (20 cycles / stride 4)", evals)
	}
}

func TestRunEveryStrideLargerThanBudget(t *testing.T) {
	// stride > maxCycles: no in-loop boundary is ever reached, so the
	// post-loop check must evaluate the predicate exactly once.
	e := NewEngine(Clock{})
	n := 0
	e.Add(DeviceFunc(func(uint64) { n++ }))
	evals := 0
	ran, err := e.RunEvery(10, 64, func() bool { evals++; return n >= 10 })
	if err != nil {
		t.Fatalf("final-cycle check missed: %v", err)
	}
	if ran != 10 {
		t.Fatalf("ran %d, want 10", ran)
	}
	if evals != 1 {
		t.Fatalf("done() evaluated %d times, want exactly 1", evals)
	}
}

func TestRunEveryLimit(t *testing.T) {
	e := NewEngine(Clock{})
	_, err := e.RunEvery(20, 4, func() bool { return false })
	if !errors.Is(err, ErrMaxCycles) {
		t.Fatalf("err = %v", err)
	}
}

func TestRunEveryZeroStride(t *testing.T) {
	e := NewEngine(Clock{})
	n := 0
	e.Add(DeviceFunc(func(uint64) { n++ }))
	ran, err := e.RunEvery(100, 0, func() bool { return n >= 3 })
	if err != nil || ran != 3 {
		t.Fatalf("zero stride should behave like 1: ran=%d err=%v", ran, err)
	}
}

func TestRunEveryNilPredicate(t *testing.T) {
	e := NewEngine(Clock{})
	if _, err := e.RunEvery(10, 1, nil); err == nil {
		t.Fatal("nil predicate should error")
	}
}

func TestDevicesCount(t *testing.T) {
	e := NewEngine(Clock{})
	if e.Devices() != 0 {
		t.Fatal("fresh engine has devices")
	}
	e.Add(DeviceFunc(func(uint64) {}))
	e.Add(DeviceFunc(func(uint64) {}))
	if e.Devices() != 2 {
		t.Fatalf("Devices() = %d", e.Devices())
	}
}
