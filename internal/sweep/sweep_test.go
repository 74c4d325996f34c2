package sweep

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"noctg/internal/simtest"
)

// runGrid validates, expands and runs g, as the CLIs do.
func runGrid(r Runner, g Grid) ([]Result, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return r.Run(g.Expand())
}

func TestRunPreservesTaskOrder(t *testing.T) {
	// Later tasks finish first on purpose; errors must still land at their
	// own indices.
	const n = 20
	var ran atomic.Int32
	tasks := make([]func() error, n)
	errOdd := errors.New("odd")
	for i := 0; i < n; i++ {
		i := i
		tasks[i] = func() error {
			time.Sleep(time.Duration(n-i) * time.Millisecond / 4)
			ran.Add(1)
			if i%2 == 1 {
				return errOdd
			}
			return nil
		}
	}
	errs := Run(4, tasks)
	if got := ran.Load(); got != n {
		t.Fatalf("ran %d of %d tasks", got, n)
	}
	for i, err := range errs {
		if (i%2 == 1) != (err != nil) {
			t.Fatalf("task %d: unexpected error state %v", i, err)
		}
	}
}

func TestRunRecoversPanics(t *testing.T) {
	errs := Run(2, []func() error{
		func() error { panic("boom") },
		func() error { return nil },
	})
	if errs[0] == nil || !strings.Contains(errs[0].Error(), "boom") {
		t.Fatalf("panic not converted to error: %v", errs[0])
	}
	if errs[1] != nil {
		t.Fatalf("healthy task failed: %v", errs[1])
	}
}

func TestMapKeepsItemOrder(t *testing.T) {
	items := []int{5, 4, 3, 2, 1, 0}
	out, err := Map(3, items, func(i, v int) (int, error) {
		time.Sleep(time.Duration(v) * time.Millisecond)
		return v * 10, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range items {
		if out[i] != v*10 {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], v*10)
		}
	}
}

func TestGridExpandOrderAndDefaults(t *testing.T) {
	g := Grid{
		Workloads: []Workload{
			{Kind: KindStochastic, Dist: "uniform", Cores: 2},
			{Kind: KindStochastic, Dist: "bursty", Cores: 2},
		},
		Fabrics: []Fabric{{Interconnect: FabricAMBA}, {Interconnect: FabricXPipes}},
	}
	pts := g.Expand()
	if len(pts) != 4 {
		t.Fatalf("expanded %d points, want 4", len(pts))
	}
	for i, p := range pts {
		if p.ID != i {
			t.Fatalf("point %d has ID %d", i, p.ID)
		}
		if p.ClockPeriodNS != 5 || p.Seed != 1 {
			t.Fatalf("defaults not applied: %+v", p)
		}
	}
	// workload-major nesting
	if pts[0].Workload.Dist != "uniform" || pts[1].Workload.Dist != "uniform" ||
		pts[2].Workload.Dist != "bursty" {
		t.Fatalf("unexpected nesting order: %+v", pts)
	}
	if pts[0].Fabric.Interconnect != FabricAMBA || pts[1].Fabric.Interconnect != FabricXPipes {
		t.Fatalf("fabric should be the inner axis: %+v", pts)
	}
}

func TestGridValidateRejectsBadAxes(t *testing.T) {
	cases := []Grid{
		{},
		{Workloads: []Workload{{Kind: "nope"}}, Fabrics: []Fabric{{Interconnect: FabricAMBA}}},
		{Workloads: []Workload{{Kind: KindTG, Bench: "unknown", Cores: 2, Size: 4}},
			Fabrics: []Fabric{{Interconnect: FabricAMBA}}},
		{Workloads: []Workload{{Kind: KindStochastic, Dist: "uniform", Cores: 2}},
			Fabrics: []Fabric{{Interconnect: "token-ring"}}},
		{Workloads: []Workload{{Kind: KindStochastic, Dist: "weibull", Cores: 2}},
			Fabrics: []Fabric{{Interconnect: FabricAMBA}}},
		// Out-of-range benchmark sizes panic inside the prog constructors;
		// Validate must return an error, not crash.
		{Workloads: []Workload{{Kind: KindTG, Bench: "cacheloop", Cores: 0, Size: 100}},
			Fabrics: []Fabric{{Interconnect: FabricAMBA}}},
		{Workloads: []Workload{{Kind: KindTG, Bench: "spmatrix", Cores: 1, Size: 1}},
			Fabrics: []Fabric{{Interconnect: FabricAMBA}}},
		// A single-core benchmark ignores cores, but a negative count is
		// still not a core count.
		{Workloads: []Workload{{Kind: KindTG, Bench: "spmatrix", Cores: -2, Size: 8}},
			Fabrics: []Fabric{{Interconnect: FabricAMBA}}},
		// A zero clock period would silently fall back to 5 ns inside the
		// engine while the artifact still reports 0.
		{Workloads: []Workload{{Kind: KindStochastic, Dist: "uniform", Cores: 2}},
			Fabrics:        []Fabric{{Interconnect: FabricAMBA}},
			ClockPeriodsNS: []uint64{0}},
	}
	for i, g := range cases {
		if err := g.Validate(); err == nil {
			t.Fatalf("case %d: bad grid validated", i)
		}
	}
}

// TestValidatePointsBuildsEachTGSpecOnce: validating a TG-only campaign
// builds each distinct benchmark spec once, so its allocations do not grow
// with the seed count, and a bad TG point still fails with its own ID.
func TestValidatePointsBuildsEachTGSpecOnce(t *testing.T) {
	points := func(seeds int) []Point {
		g := Grid{
			Workloads: []Workload{
				{Kind: KindTG, Bench: "mpmatrix", Cores: 2, Size: 8},
				{Kind: KindTG, Bench: "cacheloop", Cores: 2, Size: 500},
			},
			Fabrics: []Fabric{{Interconnect: FabricAMBA}},
		}
		for s := 1; s <= seeds; s++ {
			g.Seeds = append(g.Seeds, int64(s))
		}
		return g.Expand()
	}
	allocs := func(pts []Point) float64 {
		return testing.AllocsPerRun(5, func() {
			if err := (Runner{}).validatePoints(pts); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, many := allocs(points(1)), allocs(points(96))
	if many > one {
		t.Errorf("validating 96 seeds allocates %.0f times, 1 seed %.0f", many, one)
	}
	pts := points(3)
	pts[4].Workload = Workload{Kind: KindTG, Bench: "spmatrix", Cores: 1, Size: 1}
	err := (Runner{}).validatePoints(pts)
	if err == nil || !strings.HasPrefix(err.Error(), "sweep: point 4: ") {
		t.Fatalf("a bad fifth point: %v", err)
	}
}

func TestPartialMeshDimensionFailsCleanly(t *testing.T) {
	// Only one mesh dimension given: the other defaults inside noc, and the
	// capacity check must apply to the effective geometry — a 4x(default 3)
	// mesh cannot hold 5 cores + 7 slaves.
	g := Grid{
		Workloads: []Workload{{Kind: KindStochastic, Dist: "uniform", Cores: 5, Count: 50}},
		Fabrics:   []Fabric{{Interconnect: FabricXPipes, MeshWidth: 4}},
	}
	res, err := runGrid(Runner{Workers: 1}, g)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err == "" || !strings.Contains(res[0].Err, "too small") {
		t.Fatalf("want a clean mesh-too-small error, got %q", res[0].Err)
	}
}

func TestParseGridRejectsUnknownFields(t *testing.T) {
	_, err := ParseGrid(strings.NewReader(`{"workloads":[],"fabrics":[],"typo_field":1}`))
	if err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestParseGridRoundTrip(t *testing.T) {
	in := `{
  "workloads": [{"kind": "stochastic", "dist": "poisson", "cores": 2, "count": 100}],
  "fabrics": [{"interconnect": "xpipes", "mesh_width": 4, "mesh_height": 2, "buffer_flits": 2}],
  "clock_periods_ns": [5, 10],
  "seeds": [1, 2]
}`
	g, err := ParseGrid(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if pts := g.Expand(); len(pts) != 4 {
		t.Fatalf("expanded %d points, want 4", len(pts))
	}
}

// testGrid is a fast ≥16-point grid mixing TG and stochastic workloads on
// both fabrics.
func testGrid() Grid {
	return Grid{
		Workloads: []Workload{
			{Kind: KindTG, Bench: "mpmatrix", Cores: 2, Size: 8},
			{Kind: KindTG, Bench: "cacheloop", Cores: 2, Size: 300},
			{Kind: KindStochastic, Dist: "uniform", Cores: 2, MeanGap: 6, Count: 200},
			{Kind: KindStochastic, Dist: "bursty", Cores: 2, MeanGap: 6, Count: 200},
		},
		Fabrics: []Fabric{
			{Interconnect: FabricAMBA},
			{Interconnect: FabricAMBA, MemWaitStates: 4},
			{Interconnect: FabricXPipes, MeshWidth: 4, MeshHeight: 2, BufferFlits: 2},
			{Interconnect: FabricXPipes, MeshWidth: 4, MeshHeight: 2, BufferFlits: 8},
		},
	}
}

// TestSweepDeterministicAcrossWorkerCounts is the package's core contract:
// the same grid serialises the same artifact whatever the worker count.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	simtest.Differential(t, "test grid", simtest.Workers, pointsCampaign(testGrid().Expand()))
}

func TestSweepResultsPopulated(t *testing.T) {
	res, err := runGrid(Runner{Workers: 8}, testGrid())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 16 {
		t.Fatalf("got %d results, want 16", len(res))
	}
	for _, r := range res {
		if r.Err != "" {
			t.Fatalf("point %d (%s @ %s) failed: %s", r.ID, r.Workload, r.Fabric, r.Err)
		}
		if r.MakespanCycles == 0 || r.Transactions == 0 || r.Reads == 0 {
			t.Fatalf("point %d (%s @ %s) missing metrics: %+v", r.ID, r.Workload, r.Fabric, r)
		}
		if r.MakespanNS != r.MakespanCycles*r.ClockPeriodNS {
			t.Fatalf("point %d: makespan_ns %d != cycles %d × period %d",
				r.ID, r.MakespanNS, r.MakespanCycles, r.ClockPeriodNS)
		}
		if strings.HasPrefix(r.Fabric, FabricXPipes) && r.FlitsRouted == 0 {
			t.Fatalf("point %d on %s routed no flits", r.ID, r.Fabric)
		}
		if r.Fabric == FabricAMBA && r.BusBusyCycles == 0 {
			t.Fatalf("point %d on amba shows idle bus", r.ID)
		}
	}
	// Deeper buffers must not slow the mesh down for the same workload.
	byLabel := map[string]Result{}
	for _, r := range res {
		byLabel[r.Workload+"@"+r.Fabric] = r
	}
	shallow := byLabel["mpmatrix/2P/8@xpipes-4x2-buf2"]
	deep := byLabel["mpmatrix/2P/8@xpipes-4x2-buf8"]
	if shallow.MakespanCycles == 0 || deep.MakespanCycles == 0 {
		t.Fatalf("missing mesh variants: %v", byLabel)
	}
	if deep.MakespanCycles > shallow.MakespanCycles {
		t.Fatalf("deep buffers slower than shallow: %d vs %d cycles",
			deep.MakespanCycles, shallow.MakespanCycles)
	}
}

func TestRunnerClockPlumbing(t *testing.T) {
	g := Grid{
		Workloads: []Workload{
			{Kind: KindStochastic, Dist: "poisson", Cores: 2, MeanGap: 6, Count: 100},
		},
		Fabrics:        []Fabric{{Interconnect: FabricAMBA}},
		ClockPeriodsNS: []uint64{5, 10},
	}
	res, err := runGrid(Runner{Workers: 2}, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d results", len(res))
	}
	// Same seed, same fabric: identical cycle behaviour, scaled sim time.
	if res[0].MakespanCycles != res[1].MakespanCycles {
		t.Fatalf("clock period changed cycle behaviour: %d vs %d",
			res[0].MakespanCycles, res[1].MakespanCycles)
	}
	if res[1].MakespanNS != 2*res[0].MakespanNS {
		t.Fatalf("10 ns run should cover twice the sim time: %d vs %d ns",
			res[1].MakespanNS, res[0].MakespanNS)
	}
}

// TestRunRecyclesPlatformMemories pins what keeps a campaign's garbage
// collections few: a finished point clears its platform's memories, so the
// next platform takes their backing stores instead of allocating its own.
// These points write only the 256 KiB shared memory (the private ones are
// never backed at all), so a point that allocates less than that is running
// on a recycled store: 71 KiB with recycling and 327 KiB without. The bound
// is 170 KiB plus a quarter, from when the stores recycled through a
// sync.Pool that the race detector drained; they no longer do, and the race
// run reads about 70 KiB as well. A recycled store must also read as a
// fresh one: the same points give the same bytes the second time through.
func TestRunRecyclesPlatformMemories(t *testing.T) {
	g := Grid{
		Workloads: []Workload{{Kind: KindStochastic, Dist: "poisson", Cores: 4, MeanGap: 6, Count: 40}},
		Fabrics: []Fabric{{Interconnect: FabricAMBA},
			{Interconnect: FabricXPipes, MeshWidth: 4, MeshHeight: 3}},
		Seeds: []int64{1, 2, 3, 4, 5, 6, 7, 8},
	}
	points := g.Expand()
	run := func() []byte {
		t.Helper()
		res, err := Runner{Workers: 1}.Run(points)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, res); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cold := run()
	var m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m1)
	warm := run()
	runtime.ReadMemStats(&m2)
	if !bytes.Equal(cold, warm) {
		t.Fatal("results differ once platforms run on recycled memories")
	}
	perPoint := (m2.TotalAlloc - m1.TotalAlloc) / uint64(len(points))
	t.Logf("%d KiB per point", perPoint>>10)
	if perPoint > 212<<10 {
		t.Fatalf("a point allocates %d KiB: its platform's memories are not being recycled", perPoint>>10)
	}
}

// TestPointAllocIndependentOfTransactionCount pins what one accounting
// bought: a point's Result comes from counters and histograms, no sweep
// platform keeps an event log, so what a point allocates is its platform
// and its Result — the same whether its masters issue 400 transactions each
// or 4 000 (with the log it was 464 KiB against 5 857 KiB). The minimum over
// a few runs is compared, so a run that loses its recycled memory to a
// collection does not count.
func TestPointAllocIndependentOfTransactionCount(t *testing.T) {
	pointAlloc := func(f Fabric, count int) uint64 {
		t.Helper()
		p := Point{
			Workload:      Workload{Kind: KindStochastic, Dist: "poisson", Cores: 4, MeanGap: 6, Count: count},
			Fabric:        f,
			ClockPeriodNS: 5,
			Seed:          1,
		}
		least := ^uint64(0)
		for i := 0; i < 6; i++ {
			var m1, m2 runtime.MemStats
			runtime.ReadMemStats(&m1)
			res, err := Runner{Workers: 1}.Run([]Point{p})
			runtime.ReadMemStats(&m2)
			if err != nil {
				t.Fatal(err)
			}
			if res[0].Err != "" || res[0].Transactions != uint64(4*count) {
				t.Fatalf("%s count %d: err %q, %d transactions", f.Label(), count, res[0].Err, res[0].Transactions)
			}
			least = min(least, m2.TotalAlloc-m1.TotalAlloc)
		}
		return least
	}
	for _, f := range []Fabric{
		{Interconnect: FabricAMBA},
		{Interconnect: FabricXPipes, MeshWidth: 4, MeshHeight: 3},
	} {
		small, large := pointAlloc(f, 400), pointAlloc(f, 4000)
		t.Logf("%s: %.1f KiB at 400 transactions per master, %.1f KiB at 4000",
			f.Label(), float64(small)/1024, float64(large)/1024)
		if large > small+16<<10 {
			t.Errorf("%s: a point allocates %d KiB at 4000 transactions per master against %d KiB at 400: something grows per transaction",
				f.Label(), large>>10, small>>10)
		}
	}
}

func TestRunRecordsPointFailure(t *testing.T) {
	// A mesh too small for the cores+slaves must fail that point only.
	g := Grid{
		Workloads: []Workload{
			{Kind: KindStochastic, Dist: "uniform", Cores: 2, Count: 50},
			{Kind: KindStochastic, Dist: "uniform", Cores: 4, Count: 50},
		},
		Fabrics: []Fabric{{Interconnect: FabricXPipes, MeshWidth: 4, MeshHeight: 2}},
	}
	res, err := runGrid(Runner{Workers: 2}, g)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != "" {
		t.Fatalf("2-core point should fit a 4x2 mesh: %s", res[0].Err)
	}
	if res[1].Err == "" {
		t.Fatal("4-core point cannot fit a 4x2 mesh, expected a recorded error")
	}
}

// TestSharedTGResultMatchesSolo: a TG configuration simulates once per
// campaign and every other seed copies its result under its own ID and
// seed, so each TG point of a mixed grid serialises exactly as the same
// point run alone. A failure is never shared: with a cycle budget too
// small for any TG replay, every seed simulates and reports its own.
func TestSharedTGResultMatchesSolo(t *testing.T) {
	g := Grid{
		Workloads: []Workload{
			{Kind: KindTG, Bench: "mpmatrix", Cores: 2, Size: 8},
			{Kind: KindStochastic, Dist: "uniform", Cores: 2, MeanGap: 6, Count: 100},
			{Kind: KindTG, Bench: "cacheloop", Cores: 2, Size: 300},
		},
		Fabrics: []Fabric{
			{Interconnect: FabricAMBA},
			{Interconnect: FabricXPipes, MeshWidth: 4, MeshHeight: 2, BufferFlits: 2},
		},
		Seeds: []int64{3, 1, 7},
	}
	points := g.Expand()
	render := func(t *testing.T, res []Result) string {
		return string(simtest.Render(t, func(w io.Writer) error { return WriteJSON(w, res) }))
	}
	solo := map[int]string{}
	for _, p := range points {
		if p.Workload.Kind == KindTG {
			res, err := Runner{Workers: 1}.Run([]Point{p})
			if err != nil {
				t.Fatal(err)
			}
			solo[p.ID] = render(t, res)
		}
	}
	// run runs the grid, counting simulations per seed-free configuration.
	run := func(t *testing.T, r Runner) ([]Result, map[string]int) {
		t.Helper()
		var mu sync.Mutex
		sims := map[string]int{}
		r.simulated = func(p Point) {
			p.ID, p.Seed = 0, 0
			mu.Lock()
			sims[PointKey(p)]++
			mu.Unlock()
		}
		res, err := r.Run(points)
		if err != nil {
			t.Fatal(err)
		}
		return res, sims
	}
	seedFree := func(p Point) string {
		p.ID, p.Seed = 0, 0
		return PointKey(p)
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			res, sims := run(t, Runner{Workers: workers})
			for i, p := range points {
				want := 1
				if p.Workload.Kind != KindTG {
					want = len(g.Seeds)
				} else if got := render(t, res[i:i+1]); got != solo[p.ID] {
					t.Errorf("point %d (%s): shared result\n%s\nwant, as run alone,\n%s", p.ID, p.Label(), got, solo[p.ID])
				}
				if got := sims[seedFree(p)]; got != want {
					t.Errorf("point %d (%s): its configuration simulated %d times, want %d", p.ID, p.Label(), got, want)
				}
			}

			res, sims = run(t, Runner{Workers: workers, MaxCycles: 50})
			for i, p := range points {
				if p.Workload.Kind != KindTG {
					continue
				}
				if r := res[i]; r.Err == "" || r.ID != p.ID || r.Seed != p.Seed {
					t.Errorf("point %d (%s) under a 50-cycle budget: id %d, seed %d, err %q; want its own failure", p.ID, p.Label(), r.ID, r.Seed, r.Err)
				}
				if got := sims[seedFree(p)]; got != len(g.Seeds) {
					t.Errorf("point %d (%s): failing configuration simulated %d times, want once per seed (%d)", p.ID, p.Label(), got, len(g.Seeds))
				}
			}
		})
	}
}
