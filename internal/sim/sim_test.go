package sim

import (
	"errors"
	"testing"
	"testing/quick"
)

type recorder struct {
	id    int
	order *[]int
	ticks int
}

func (r *recorder) Tick(cycle uint64) {
	*r.order = append(*r.order, r.id)
	r.ticks++
}

// NextWake implements Sleeper: a recorder wants every tick.
func (r *recorder) NextWake(now uint64) uint64 { return now }

func TestEngineTickOrderIsRegistrationOrder(t *testing.T) {
	e := NewEngine(Clock{})
	var order []int
	for i := 0; i < 5; i++ {
		e.Add(&recorder{id: i, order: &order})
	}
	e.Step()
	want := []int{0, 1, 2, 3, 4}
	if len(order) != len(want) {
		t.Fatalf("got %d ticks, want %d", len(order), len(want))
	}
	for i, id := range want {
		if order[i] != id {
			t.Fatalf("tick order %v, want %v", order, want)
		}
	}
}

func TestEngineStepAdvancesCycle(t *testing.T) {
	e := NewEngine(Clock{})
	if e.Cycle() != 0 {
		t.Fatalf("initial cycle = %d, want 0", e.Cycle())
	}
	e.RunFor(7)
	if e.Cycle() != 7 {
		t.Fatalf("cycle after RunFor(7) = %d, want 7", e.Cycle())
	}
}

func TestEngineDeviceSeesCurrentCycle(t *testing.T) {
	e := NewEngine(Clock{})
	var seen []uint64
	e.Add(DeviceFunc(func(c uint64) { seen = append(seen, c) }))
	e.RunFor(3)
	for i, c := range []uint64{0, 1, 2} {
		if seen[i] != c {
			t.Fatalf("device saw cycles %v, want [0 1 2]", seen)
		}
	}
}

func TestEngineRunStopsOnPredicate(t *testing.T) {
	e := NewEngine(Clock{})
	n := 0
	e.Add(DeviceFunc(func(uint64) { n++ }))
	ran, err := e.Run(1000, func() bool { return n >= 10 })
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran != 10 {
		t.Fatalf("ran %d cycles, want 10", ran)
	}
}

func TestEngineRunHitsLimit(t *testing.T) {
	e := NewEngine(Clock{})
	ran, err := e.Run(25, func() bool { return false })
	if !errors.Is(err, ErrMaxCycles) {
		t.Fatalf("err = %v, want ErrMaxCycles", err)
	}
	if ran != 25 {
		t.Fatalf("ran %d cycles, want 25", ran)
	}
}

func TestEngineRunNilPredicate(t *testing.T) {
	e := NewEngine(Clock{})
	if _, err := e.Run(1, nil); err == nil {
		t.Fatal("Run(nil) should error")
	}
}

func TestEngineAddNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(nil) should panic")
		}
	}()
	NewEngine(Clock{}).Add(nil)
}

func TestClockDefaults(t *testing.T) {
	e := NewEngine(Clock{})
	if got := e.Clock().PeriodNS; got != 5 {
		t.Fatalf("default period = %d ns, want 5", got)
	}
}

func TestClockConversionPaperExample(t *testing.T) {
	// The paper: first event at 55 ns is the 11th (55/5) cycle.
	c := DefaultClock
	if got := c.Cycles(55); got != 11 {
		t.Fatalf("Cycles(55ns) = %d, want 11", got)
	}
	if got := c.NS(11); got != 55 {
		t.Fatalf("NS(11) = %d, want 55", got)
	}
}

func TestClockRoundTripProperty(t *testing.T) {
	c := Clock{PeriodNS: 5}
	f := func(cycle uint32) bool {
		return c.Cycles(c.NS(uint64(cycle))) == uint64(cycle)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCounterBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(2)
	if c.Value() != 3 {
		t.Fatalf("counter = %d, want 3", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatalf("reset counter = %d", c.Value())
	}
	// The underlying-uint64 compatibility contract: ++ and untyped-constant
	// comparisons keep working on exposed counter fields.
	c++
	if c != 1 {
		t.Fatalf("c = %d after ++", c)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(10, 100)
	for _, v := range []uint64{0, 9, 10, 99, 100, 5000} {
		h.Observe(v)
	}
	_, counts := h.Buckets()
	want := []uint64{2, 2, 2}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("bucket counts = %v, want %v", counts, want)
		}
	}
	if h.Count() != 6 || h.Max() != 5000 {
		t.Fatalf("count=%d max=%d", h.Count(), h.Max())
	}
	if h.Sum() != 0+9+10+99+100+5000 {
		t.Fatalf("sum=%d", h.Sum())
	}
}

func TestHistogramMean(t *testing.T) {
	h := NewHistogram(10)
	if h.Mean() != 0 {
		t.Fatal("empty histogram mean should be 0")
	}
	h.Observe(4)
	h.Observe(6)
	if h.Mean() != 5 {
		t.Fatalf("mean = %v, want 5", h.Mean())
	}
}

func TestHistogramBadBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("descending bounds should panic")
		}
	}()
	NewHistogram(10, 5)
}

func TestHistogramObserveProperty(t *testing.T) {
	// Total of bucket counts always equals number of observations.
	f := func(vals []uint16) bool {
		h := NewHistogram(16, 256, 4096)
		var sum uint64
		for _, v := range vals {
			h.Observe(uint64(v))
			sum += uint64(v)
		}
		_, counts := h.Buckets()
		var total uint64
		for _, c := range counts {
			total += c
		}
		return total == uint64(len(vals)) && h.Sum() == sum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
