package analytic

import (
	"math"
	"testing"
)

// oneMaster is a hand-checkable 2x2 mesh point: one master at node 0
// reading from node 3 (distance 2), one wait state, burst 1.
func oneMaster() Spec {
	return Spec{
		Fabric: Fabric{Kind: KindXPipes, Width: 2, Height: 2, WaitStates: 1},
		Traffic: Traffic{
			Masters:      1,
			MasterNode:   []int{0},
			DestNodes:    [][]int{{3}},
			DestProbs:    [][]float64{{1}},
			ReadFraction: 1,
			Burst:        1,
			GapSCV:       1.0 / 3,
		},
	}
}

// TestXPipesHand pins the 2x2 single-master numbers computed by hand:
// zero-load read latency 2·2 + 2 + 3 + 1 + 4 = 14 cycles, slave
// bottleneck 1 + 1 + 3 = 5 cycles/transaction, so the closed loop
// self-limits (knee below zero) with a 200 TPK ceiling.
func TestXPipesHand(t *testing.T) {
	e, err := New(oneMaster())
	if err != nil {
		t.Fatal(err)
	}
	est := e.Estimate()
	if est.ZeroLoadLatency != 14 {
		t.Errorf("zero-load latency = %v, want 14", est.ZeroLoadLatency)
	}
	if est.WriteAccept != 3 {
		t.Errorf("write accept = %v, want 3", est.WriteAccept)
	}
	if est.Bottleneck != "slave 3" || est.BottleneckDemand != 5 {
		t.Errorf("bottleneck = %s/%v, want slave 3/5", est.Bottleneck, est.BottleneckDemand)
	}
	if est.Saturates {
		t.Errorf("single master on an idle mesh must self-limit, got knee at gap %v", est.KneeGap)
	}
	if est.SatThroughputTPK != 200 {
		t.Errorf("saturation throughput = %v, want 200", est.SatThroughputTPK)
	}
	// One customer never queues: latency is flat at the zero-load value.
	if got := e.LatencyAt(0); got != 14 {
		t.Errorf("LatencyAt(0) = %v, want 14", got)
	}
	// Closed-loop throughput at gap 0: one transaction per 1+14 cycles.
	if got, want := e.ThroughputAt(0), 1000.0/15; math.Abs(got-want) > 1e-9 {
		t.Errorf("ThroughputAt(0) = %v, want %v", got, want)
	}
	// The accessors expose the same bottleneck the estimate reports.
	if name, demand := e.Bottleneck(); name != est.Bottleneck || demand != est.BottleneckDemand {
		t.Errorf("Bottleneck() = %s/%v, want %s/%v", name, demand, est.Bottleneck, est.BottleneckDemand)
	}
	// A single master far apart from its own service never stresses the
	// bottleneck: utilization vanishes with the gap.
	if u := e.DemandRatioAt(1e6); !(u > 0 && u < 0.01) {
		t.Errorf("DemandRatioAt(1e6) = %v, want a vanishing utilization", u)
	}
}

// TestXPipesConverging pins the three-masters-one-slave hotspot on the
// 2x2 mesh: summed slave demand 3·5 = 15, mean zero-load latency
// (14+12+12)/3, knee where the slave saturates.
func TestXPipesConverging(t *testing.T) {
	spec := Spec{
		Fabric: Fabric{Kind: KindXPipes, Width: 2, Height: 2, WaitStates: 1},
		Traffic: Traffic{
			Masters:      3,
			MasterNode:   []int{0, 1, 2},
			DestNodes:    [][]int{{3}, {3}, {3}},
			DestProbs:    [][]float64{{1}, {1}, {1}},
			ReadFraction: 1,
			Burst:        1,
			GapSCV:       1,
		},
	}
	e, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	est := e.Estimate()
	r0 := (14.0 + 12 + 12) / 3
	if math.Abs(est.ZeroLoadLatency-r0) > 1e-9 {
		t.Errorf("zero-load latency = %v, want %v", est.ZeroLoadLatency, r0)
	}
	if est.Bottleneck != "slave 3" || est.BottleneckDemand != 15 {
		t.Errorf("bottleneck = %s/%v, want slave 3/15", est.Bottleneck, est.BottleneckDemand)
	}
	if !est.Saturates {
		t.Fatal("three masters on one slave must saturate")
	}
	if knee := 15 - r0 - 1; math.Abs(est.KneeGap-knee) > 1e-9 {
		t.Errorf("knee gap = %v, want %v", est.KneeGap, knee)
	}
	if want := 3000.0 / 15; math.Abs(est.SatThroughputTPK-want) > 1e-9 {
		t.Errorf("saturation throughput = %v, want %v", est.SatThroughputTPK, want)
	}
	// Past the knee the latency must rise well above zero-load; far below
	// it, it must approach zero-load from above.
	if lat := e.LatencyAt(0); lat < r0+1 {
		t.Errorf("saturated latency %v not above zero-load %v", lat, r0)
	}
	if lat := e.LatencyAt(500); lat < r0 || lat > r0+1 {
		t.Errorf("light-load latency %v strayed from zero-load %v", lat, r0)
	}
	// Monotonicity: latency never increases with gap.
	prev := math.Inf(1)
	for g := 0.0; g <= 64; g += 0.5 {
		if lat := e.LatencyAt(g); lat > prev+1e-9 {
			t.Fatalf("latency rose from %v to %v at gap %v", prev, lat, g)
		} else {
			prev = lat
		}
	}
	// Past the knee the demand ratio keeps measuring the overload depth.
	if ratio := e.DemandRatioAt(0); ratio <= 1 {
		t.Errorf("DemandRatioAt(0) = %v, want > 1 past the knee", ratio)
	}
}

// TestAMBAHand pins the bus model: occupancy addr + B·(beat+ws) summed
// over masters, zero-load read 2 + B·(1+ws), posted writes accepted in
// one cycle.
func TestAMBAHand(t *testing.T) {
	spec := Spec{
		Fabric: Fabric{Kind: KindAMBA, WaitStates: 2},
		Traffic: Traffic{
			Masters:      2,
			ReadFraction: 0.5,
			Burst:        1,
			GapSCV:       1,
		},
	}
	e, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	est := e.Estimate()
	if est.ZeroLoadLatency != 5 {
		t.Errorf("zero-load latency = %v, want 5", est.ZeroLoadLatency)
	}
	if est.WriteAccept != 1 {
		t.Errorf("write accept = %v, want 1", est.WriteAccept)
	}
	if est.Bottleneck != "bus" || est.BottleneckDemand != 8 {
		t.Errorf("bottleneck = %s/%v, want bus/8", est.Bottleneck, est.BottleneckDemand)
	}
	// T0 = 0.5·5 + 0.5·1 = 3; knee = 8 - 3 - 1 = 4.
	if !est.Saturates || math.Abs(est.KneeGap-4) > 1e-9 {
		t.Errorf("knee gap = %v (saturates %v), want 4", est.KneeGap, est.Saturates)
	}
	if est.SatThroughputTPK != 250 {
		t.Errorf("saturation throughput = %v, want 250", est.SatThroughputTPK)
	}
}

// TestValidation exercises the rejection paths.
func TestValidation(t *testing.T) {
	bad := []func(*Spec){
		func(s *Spec) { s.Traffic.Masters = 0 },
		func(s *Spec) { s.Traffic.ReadFraction = 1.5 },
		func(s *Spec) { s.Traffic.Burst = 0 },
		func(s *Spec) { s.Traffic.GapSCV = -1 },
		func(s *Spec) { s.Fabric.Kind = "crossbar" },
		func(s *Spec) { s.Fabric.Width = 1 },
		func(s *Spec) { s.Traffic.MasterNode = []int{9} },
		func(s *Spec) { s.Traffic.DestNodes = [][]int{{-1}} },
		func(s *Spec) { s.Traffic.DestProbs = [][]float64{{0.5}} },
		func(s *Spec) { s.Traffic.DestProbs = nil },
	}
	for i, mut := range bad {
		spec := oneMaster()
		mut(&spec)
		if _, err := New(spec); err == nil {
			t.Errorf("case %d: bad spec accepted", i)
		}
	}
	if _, err := New(oneMaster()); err != nil {
		t.Errorf("good spec rejected: %v", err)
	}
}

// TestTorusRoutesWrap checks wrap routes shorten torus paths: corner to
// corner on a 4x1 ring is one hop, so the zero-load latency drops.
func TestTorusRoutesWrap(t *testing.T) {
	mesh := Spec{
		Fabric: Fabric{Kind: KindXPipes, Width: 4, Height: 1, WaitStates: 1},
		Traffic: Traffic{
			Masters: 1, MasterNode: []int{0},
			DestNodes: [][]int{{3}}, DestProbs: [][]float64{{1}},
			ReadFraction: 1, Burst: 1, GapSCV: 1,
		},
	}
	torus := mesh
	torus.Fabric.Torus = true
	em, err := New(mesh)
	if err != nil {
		t.Fatal(err)
	}
	et, err := New(torus)
	if err != nil {
		t.Fatal(err)
	}
	// Mesh distance 3, torus distance 1: latency difference 2·2 = 4.
	if d := em.Estimate().ZeroLoadLatency - et.Estimate().ZeroLoadLatency; d != 4 {
		t.Errorf("torus wrap saved %v cycles, want 4", d)
	}
}

// BenchmarkEstimate guards the hot path; the alloc ratchet lives in the
// root alloc-guard suite.
func BenchmarkEstimate(b *testing.B) {
	e, err := New(oneMaster())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		est := e.Estimate()
		_ = e.LatencyAt(float64(i % 32))
		_ = est
	}
}
