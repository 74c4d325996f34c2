package guard

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestViolationError(t *testing.T) {
	v := &Violation{Kind: KindDeadlock, Cycle: 42, Shard: 3, Msg: "stuck"}
	if got := v.Error(); !strings.Contains(got, "deadlock-horizon") ||
		!strings.Contains(got, "cycle 42") || !strings.Contains(got, "shard 3") {
		t.Fatalf("Error() = %q", got)
	}
	v.Shard = -1
	if got := v.Error(); strings.Contains(got, "shard") {
		t.Fatalf("global violation mentions a shard: %q", got)
	}
}

func TestAsViolation(t *testing.T) {
	v := &Violation{Kind: KindBudget, Msg: "over"}
	wrapped := fmt.Errorf("outer: %w", fmt.Errorf("inner: %w", v))
	got, ok := AsViolation(wrapped)
	if !ok || got != v {
		t.Fatalf("AsViolation through wrapping = %v, %v", got, ok)
	}
	if _, ok := AsViolation(errors.New("plain")); ok {
		t.Fatal("plain error reported as violation")
	}
	if _, ok := AsViolation(nil); ok {
		t.Fatal("nil error reported as violation")
	}
}

func TestViolationJSONOmitsStack(t *testing.T) {
	v := &Violation{Kind: KindPanic, Msg: "boom", Stack: "goroutine 1 [running]: 0xdeadbeef"}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "deadbeef") {
		t.Fatalf("stack (host-dependent addresses) leaked into JSON: %s", b)
	}
}

func TestConfigEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Fatal("zero config reports enabled")
	}
	for _, c := range []Config{
		{NoRetireHorizon: 1},
		{RunBudget: time.Second},
		{Conservation: true},
		{BarrierStall: time.Second},
		Default(),
	} {
		if !c.Enabled() {
			t.Fatalf("config %+v reports disabled", c)
		}
	}
	d := Default()
	if d.NoRetireHorizon != DefaultHorizon || !d.Conservation || d.BarrierStall != DefaultBarrierStall {
		t.Fatalf("Default() = %+v", d)
	}
	if d.RunBudget != 0 {
		t.Fatal("Default() must not impose a wall-clock budget")
	}
}

// TestMonitorDeadlock proves the no-retire horizon fires, and only when
// packets are actually in flight.
func TestMonitorDeadlock(t *testing.T) {
	prog, live := uint64(0), 1
	m := NewMonitor(Config{NoRetireHorizon: 100},
		Probes{Progress: func() uint64 { return prog }, Live: func() int { return live }})
	if err := m.Check(0); err != nil {
		t.Fatalf("arming check: %v", err)
	}
	if err := m.Check(99); err != nil {
		t.Fatalf("pre-horizon check: %v", err)
	}
	err := m.Check(100)
	if err == nil {
		t.Fatal("horizon elapsed without a violation")
	}
	v, ok := AsViolation(err)
	if !ok || v.Kind != KindDeadlock || v.Cycle != 100 {
		t.Fatalf("violation = %+v", v)
	}
	if m.Violation() != v {
		t.Fatal("Violation() does not return the fired violation")
	}
	// The violation is latched: progress afterwards cannot clear it.
	prog = 7
	if err2 := m.Check(200); err2 != err {
		t.Fatalf("latched monitor returned %v", err2)
	}
}

func TestMonitorDeadlockResets(t *testing.T) {
	prog, live := uint64(0), 1
	m := NewMonitor(Config{NoRetireHorizon: 100},
		Probes{Progress: func() uint64 { return prog }, Live: func() int { return live }})
	_ = m.Check(0)
	prog = 1 // a retirement restarts the horizon
	if err := m.Check(99); err != nil {
		t.Fatal(err)
	}
	if err := m.Check(150); err != nil {
		t.Fatalf("horizon did not restart on progress: %v", err)
	}
	live = 0 // quiescence is legitimate, not a wedge
	if err := m.Check(10_000); err != nil {
		t.Fatalf("idle fabric tripped the deadlock horizon: %v", err)
	}
}

func TestMonitorConservation(t *testing.T) {
	scans := 0
	bad := false
	m := NewMonitor(Config{Conservation: true, ConservationEvery: 10}, Probes{
		Scan: func() *Violation {
			scans++
			if bad {
				return &Violation{Kind: KindConservation, Shard: -1, Msg: "leak"}
			}
			return nil
		},
		Diagnose: func() *Diagnostic { return &Diagnostic{Cycle: 1} },
	})
	_ = m.Check(0)
	_ = m.Check(5) // below the cadence: no scan
	if scans != 0 {
		t.Fatalf("scan ran %d times before the cadence elapsed", scans)
	}
	_ = m.Check(10)
	if scans != 1 {
		t.Fatalf("scan ran %d times at the cadence point", scans)
	}
	bad = true
	err := m.Check(20)
	v, ok := AsViolation(err)
	if !ok || v.Kind != KindConservation {
		t.Fatalf("conservation violation = %v", err)
	}
	if v.Cycle != 20 {
		t.Fatalf("unstamped violation cycle = %d, want 20", v.Cycle)
	}
	if v.Diag == nil {
		t.Fatal("violation missing its diagnostic dump")
	}
}

func TestMonitorBudget(t *testing.T) {
	m := NewMonitor(Config{RunBudget: time.Nanosecond}, Probes{})
	var err error
	// The wall clock is consulted once per 64 checks.
	for i := 0; i < 200 && err == nil; i++ {
		err = m.Check(uint64(i))
	}
	v, ok := AsViolation(err)
	if !ok || v.Kind != KindBudget {
		t.Fatalf("budget violation = %v", err)
	}
}

// TestMonitorDiagnosePanicIsContained proves a crashing Diagnose probe
// loses the dump, never the violation.
func TestMonitorDiagnosePanicIsContained(t *testing.T) {
	m := NewMonitor(Config{NoRetireHorizon: 10}, Probes{
		Progress: func() uint64 { return 0 },
		Live:     func() int { return 1 },
		Diagnose: func() *Diagnostic { panic("diag walks broken state") },
	})
	_ = m.Check(0)
	err := m.Check(10)
	v, ok := AsViolation(err)
	if !ok || v.Kind != KindDeadlock {
		t.Fatalf("violation = %v", err)
	}
	if v.Diag != nil {
		t.Fatal("panicking Diagnose still produced a dump")
	}
}

// TestMonitorCheckAllocFree: the watchdog hook runs at every predicate
// stride of a guarded engine, so the fault-free path must stay off the
// heap with every watchdog armed.
func TestMonitorCheckAllocFree(t *testing.T) {
	prog := uint64(0)
	m := NewMonitor(Config{
		NoRetireHorizon:   1 << 40,
		Conservation:      true,
		ConservationEvery: 4,
		RunBudget:         time.Hour,
	}, Probes{
		Progress: func() uint64 { prog++; return prog },
		Live:     func() int { return 1 },
		Scan:     func() *Violation { return nil },
	})
	now := uint64(0)
	if avg := testing.AllocsPerRun(500, func() {
		now += 8
		if err := m.Check(now); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("Check allocates %.2f times per call, want 0", avg)
	}
}

func TestDiagnosticSummaryCaps(t *testing.T) {
	d := &Diagnostic{Cycle: 5, LivePackets: 3}
	for i := 0; i < 20; i++ {
		d.Queues = append(d.Queues, QueueDiag{Node: i, Port: "e", VC: "req", Flits: 1})
		d.Masters = append(d.Masters, MasterDiag{Node: i, State: "injected"})
	}
	s := d.Summary()
	if !strings.Contains(s, "20 stuck queues") || !strings.Contains(s, "... 12 more") {
		t.Fatalf("summary does not cap long sections:\n%s", s)
	}
}
