package platform_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"noctg/internal/cache"
	"noctg/internal/core"
	"noctg/internal/layout"
	"noctg/internal/noc"
	"noctg/internal/ocp"
	"noctg/internal/platform"
	"noctg/internal/prog"
	"noctg/internal/sim"
	"noctg/internal/stochastic"
)

// randomProgram emits a random but well-formed TGP program: bursts of
// reads/writes to the shared memory, long and short Idle gaps, and a
// semaphore-guarded critical section shared by all masters, so that the
// skip kernel has to get both pure sleeping and reactive cross-core timing
// right.
func randomProgram(r *rand.Rand, master, cores int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "MASTER[%d,%d]\n", master, cores-1)
	fmt.Fprintf(&b, "REGISTER sem %#08x\n", layout.SemAddr(0))
	fmt.Fprintf(&b, "REGISTER one 1\n")
	for i := 0; i < 4; i++ {
		fmt.Fprintf(&b, "REGISTER a%d %#08x\n", i,
			layout.SharedBase+uint32(r.Intn(64))*4)
	}
	fmt.Fprintf(&b, "REGISTER d0 %d\n", r.Uint32())
	b.WriteString("BEGIN\n")

	emitOps := func(n int) {
		for i := 0; i < n; i++ {
			a := r.Intn(4)
			switch r.Intn(5) {
			case 0:
				fmt.Fprintf(&b, "\tIdle(%d)\n", 1+r.Intn(5000))
			case 1:
				fmt.Fprintf(&b, "\tRead(a%d)\n", a)
			case 2:
				fmt.Fprintf(&b, "\tWrite(a%d, d0)\n", a)
			case 3:
				fmt.Fprintf(&b, "\tBurstRead(a%d, %d)\n", a, 2+r.Intn(7))
			case 4:
				fmt.Fprintf(&b, "\tBurstWrite(a%d, d0, %d)\n", a, 2+r.Intn(7))
			}
		}
	}

	emitOps(2 + r.Intn(6))
	// Semaphore-guarded section: acquire by polling, hold, release.
	fmt.Fprintf(&b, "Acquire%d:\n", master)
	b.WriteString("\tRead(sem)\n")
	fmt.Fprintf(&b, "\tIf rdreg != one then Acquire%d\n", master)
	emitOps(1 + r.Intn(4))
	b.WriteString("\tWrite(sem, one)\n")
	emitOps(2 + r.Intn(6))
	b.WriteString("\tHalt\nEND\n")
	return b.String()
}

// fabricVariants spans the interconnect configurations the kernel
// equivalence properties must hold on: the AMBA bus, the ×pipes mesh and
// the ×pipes torus (wrap links + dateline VCs).
func fabricVariants() []struct {
	name string
	ic   platform.Interconnect
	topo noc.Topology
} {
	return []struct {
		name string
		ic   platform.Interconnect
		topo noc.Topology
	}{
		{"amba", platform.AMBA, noc.Mesh},
		{"xpipes-mesh", platform.XPipes, noc.Mesh},
		{"xpipes-torus", platform.XPipes, noc.Torus},
	}
}

// propertyKernels is the kernel matrix the equivalence properties run
// over: the strict reference plus both tick-eliding kernels.
func propertyKernels() []platform.KernelMode {
	return []platform.KernelMode{platform.KernelStrict, platform.KernelSkip, platform.KernelEvent}
}

// TestKernelPropertyRandomPrograms is the property half of the equivalence
// gate: for randomized TG programs on the bus, the mesh and the torus, the
// strict, skip and event kernels must agree on every master's halt cycle,
// the makespan, and the final engine cycle count.
func TestKernelPropertyRandomPrograms(t *testing.T) {
	const trials = 25
	for trial := 0; trial < trials; trial++ {
		r := rand.New(rand.NewSource(int64(trial) * 1117))
		cores := 2 + r.Intn(2)
		progs := make([]*core.Program, cores)
		for i := range progs {
			p, err := core.Assemble(randomProgram(r, i, cores))
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			progs[i] = p
		}
		for _, fv := range fabricVariants() {
			run := func(kernel platform.KernelMode) (uint64, uint64, []uint64) {
				t.Helper()
				sys, err := platform.BuildTG(platform.Config{
					Cores: cores, Interconnect: fv.ic,
					NoC:    noc.Config{Topology: fv.topo},
					Kernel: kernel,
				}, progs)
				if err != nil {
					t.Fatalf("trial %d %s: %v", trial, fv.name, err)
				}
				makespan, err := sys.Run(5_000_000)
				if err != nil {
					t.Fatalf("trial %d %s: %v", trial, fv.name, err)
				}
				halts := make([]uint64, cores)
				for i, m := range sys.Masters {
					halts[i] = m.(*core.Device).HaltCycle()
				}
				return makespan, sys.Engine.Cycle(), halts
			}
			mkS, cycS, haltS := run(platform.KernelStrict)
			for _, kernel := range propertyKernels()[1:] {
				mkK, cycK, haltK := run(kernel)
				if mkS != mkK || cycS != cycK {
					t.Fatalf("trial %d %s: strict makespan %d (cycle %d) vs %v %d (cycle %d)",
						trial, fv.name, mkS, cycS, kernel, mkK, cycK)
				}
				for i := range haltS {
					if haltS[i] != haltK[i] {
						t.Fatalf("trial %d %s master %d: strict halt %d vs %v halt %d",
							trial, fv.name, i, haltS[i], kernel, haltK[i])
					}
				}
			}
		}
	}
}

// TestKernelPropertyRandomScenarios samples the spatial scenario space:
// random pattern × distribution × topology stochastic platforms must agree
// between the kernels on makespan, engine cycle, per-master issue counts
// and the full read-latency histograms.
func TestKernelPropertyRandomScenarios(t *testing.T) {
	const trials = 20
	patterns := []stochastic.Pattern{
		stochastic.UniformRandom, stochastic.Transpose, stochastic.BitComplement,
		stochastic.BitReverse, stochastic.Hotspot, stochastic.NearestNeighbor,
	}
	for trial := 0; trial < trials; trial++ {
		r := rand.New(rand.NewSource(int64(trial)*313 + 7))
		// 2x2 keeps every pattern legal (square, power of two).
		const w, h = 2, 2
		cores := w * h
		dests := make([]ocp.AddrRange, cores)
		for d := range dests {
			dests[d] = layout.PrivRange(d)
		}
		spatial := &stochastic.Spatial{
			Pattern:   patterns[r.Intn(len(patterns))],
			W:         w,
			H:         h,
			Dests:     dests,
			AllowSelf: r.Intn(2) == 0,
		}
		if spatial.Pattern == stochastic.Hotspot {
			spatial.HotspotWeights = []float64{0, 0.1 + 0.8*r.Float64()}
		}
		scfg := stochastic.Config{
			Dist:    stochastic.Dist(r.Intn(4)),
			MeanGap: 2 + 20*r.Float64(),
			Count:   100 + r.Intn(200),
			Seed:    int64(trial),
			Spatial: spatial,
		}
		fv := fabricVariants()[r.Intn(3)]

		run := func(kernel platform.KernelMode) (uint64, uint64, []int, []sim.HistogramSnapshot) {
			t.Helper()
			var gens []*stochastic.Generator
			sys, err := platform.Build(platform.Config{
				Cores: cores, Interconnect: fv.ic,
				NoC:    noc.Config{Topology: fv.topo},
				Kernel: kernel,
			}, func(_ *platform.System, id int, port ocp.MasterPort) platform.Master {
				g := stochastic.New(id, scfg, port)
				gens = append(gens, g)
				return g
			})
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, fv.name, err)
			}
			makespan, err := sys.Run(5_000_000)
			if err != nil {
				t.Fatalf("trial %d %s (%v/%v): %v", trial, fv.name, scfg.Dist, spatial.Pattern, err)
			}
			issued := make([]int, len(gens))
			hists := make([]sim.HistogramSnapshot, len(gens))
			for i, g := range gens {
				issued[i] = g.Issued()
				hists[i] = g.Latency.Snapshot()
			}
			return makespan, sys.Engine.Cycle(), issued, hists
		}
		mkS, cycS, issS, histS := run(platform.KernelStrict)
		for _, kernel := range propertyKernels()[1:] {
			mkK, cycK, issK, histK := run(kernel)
			if mkS != mkK || cycS != cycK {
				t.Fatalf("trial %d %s %v/%v: strict makespan %d (cycle %d) vs %v %d (cycle %d)",
					trial, fv.name, scfg.Dist, spatial.Pattern, mkS, cycS, kernel, mkK, cycK)
			}
			if !reflect.DeepEqual(issS, issK) {
				t.Fatalf("trial %d %s: %v issue counts diverged: %v vs %v", trial, fv.name, kernel, issS, issK)
			}
			if !reflect.DeepEqual(histS, histK) {
				t.Fatalf("trial %d %s: latency histograms diverged:\nstrict: %+v\n%v: %+v",
					trial, fv.name, histS, kernel, histK)
			}
		}
	}
}

// TestARMAlwaysTicksStrictly pins the property the kernel default rests
// on: a miniARM core is not a sim.Sleeper, so on an ARM platform the event
// and skip kernels elide nothing — the engine reports it cannot skip,
// skips no cycle, and lands on the strict run's makespan. ARM reference
// runs therefore need no kernel of their own, and the Table 2 gain
// measures the TG model against a reference that ticked every cycle.
func TestARMAlwaysTicksStrictly(t *testing.T) {
	spec := prog.MPMatrix(2, 4)
	progs, err := spec.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	caches := cache.Config{Lines: 64, WordsPerLine: 4}
	for _, ic := range []platform.Interconnect{platform.AMBA, platform.XPipes} {
		run := func(kernel platform.KernelMode) uint64 {
			t.Helper()
			sys, err := platform.BuildARM(platform.Config{Cores: spec.Cores, Interconnect: ic, Kernel: kernel},
				progs, caches, caches)
			if err != nil {
				t.Fatalf("%v %v: %v", ic, kernel, err)
			}
			makespan, err := sys.Run(spec.MaxCycles)
			if err != nil {
				t.Fatalf("%v %v: %v", ic, kernel, err)
			}
			if sys.Engine.CanSkip() || sys.Engine.SkippedCycles != 0 {
				t.Errorf("%v %v: ARM engine CanSkip=%v, skipped %d cycles; want strict ticking",
					ic, kernel, sys.Engine.CanSkip(), sys.Engine.SkippedCycles)
			}
			return makespan
		}
		want := run(platform.KernelStrict)
		for _, kernel := range []platform.KernelMode{platform.KernelEvent, platform.KernelSkip} {
			if got := run(kernel); got != want {
				t.Errorf("%v: %v makespan %d, strict %d", ic, kernel, got, want)
			}
		}
	}
}
