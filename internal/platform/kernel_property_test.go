package platform_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"noctg/internal/cache"
	"noctg/internal/core"
	"noctg/internal/guard"
	"noctg/internal/layout"
	"noctg/internal/noc"
	"noctg/internal/ocp"
	"noctg/internal/platform"
	"noctg/internal/prog"
	"noctg/internal/sim"
	"noctg/internal/simtest"
	"noctg/internal/stochastic"
	"noctg/internal/trace"
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

// fabricVariants spans the interconnect configurations the execution
// properties must hold on: the AMBA bus (which ignores the shard count),
// the ×pipes mesh and the ×pipes torus (wrap links + dateline VCs).
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

// execConfig is cfg on one execution row. Every xpipes fabric here is 4×4,
// so 1–4 shards are distinct partitions and 8 clamps to 4.
func execConfig(t *testing.T, x simtest.Exec, cfg platform.Config) platform.Config {
	t.Helper()
	kernel, err := platform.ParseKernel(x.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Kernel, cfg.Shards = kernel, x.Shards
	if cfg.Interconnect == platform.XPipes {
		cfg.NoC.Width, cfg.NoC.Height = 4, 4
	}
	return cfg
}

// TestKernelPropertyRandomPrograms: for randomized TG programs on the bus,
// the mesh and the torus, every kernel on the single engine reproduces
// every master's halt cycle, the makespan, the final engine cycle and the
// canonical snapshot device count.
func TestKernelPropertyRandomPrograms(t *testing.T) {
	simtest.Differential(t, "random programs", simtest.Kernel, randomProgramsCampaign(t))
}

// TestShardDeterminismRandomPrograms runs the same campaign as
// TestKernelPropertyRandomPrograms across every shard count, the kernel
// rotating; the kernels on the single engine are that test's rows.
func TestShardDeterminismRandomPrograms(t *testing.T) {
	simtest.Differential(t, "random programs", simtest.Kernel|simtest.Shards|simtest.Split|simtest.Rotated, randomProgramsCampaign(t))
}

// randomProgramsCampaign runs 31 seeded random TG program sets on every
// fabric variant and renders what each run exposes. The first 25 are drawn
// with 2–3 cores, the last 6 with a seed of their own and 2–4 cores.
func randomProgramsCampaign(t *testing.T) simtest.Campaign {
	progs := make([][]*core.Program, 31)
	for trial := range progs {
		seed, extra := int64(trial)*1117, 2
		if trial >= 25 {
			seed, extra = int64(trial-25)*2003+5, 3
		}
		r := rand.New(rand.NewSource(seed))
		cores := 2 + r.Intn(extra)
		for i := 0; i < cores; i++ {
			p, err := core.Assemble(randomProgram(r, i, cores))
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			progs[trial] = append(progs[trial], p)
		}
	}
	return func(t *testing.T, x simtest.Exec) []byte {
		var out bytes.Buffer
		for trial, ps := range simtest.Items(x, progs) {
			for _, fv := range fabricVariants() {
				sys, err := platform.BuildTG(execConfig(t, x, platform.Config{
					Cores: len(ps), Interconnect: fv.ic, NoC: noc.Config{Topology: fv.topo},
				}), ps)
				if err != nil {
					t.Fatalf("trial %d %s: %v", trial, fv.name, err)
				}
				makespan, err := sys.Run(5_000_000)
				if err != nil {
					t.Fatalf("trial %d %s %v: %v", trial, fv.name, x, err)
				}
				halts := make([]uint64, len(ps))
				for i, m := range sys.Masters {
					halts[i] = m.(*core.Device).HaltCycle()
				}
				snap := sys.EngineSnapshot()
				fmt.Fprintf(&out, "trial %d %s: makespan %d cycle %d devices %d halts %v\n",
					trial, fv.name, makespan, snap.Cycles, snap.Devices, halts)
			}
		}
		return out.Bytes()
	}
}

// runObs captures everything a stochastic run exposes that could diverge.
type runObs struct {
	makespan uint64
	cycle    uint64
	devices  int
	issued   []int
	hists    []sim.HistogramSnapshot
}

// observe runs a stochastic platform, guarded when gcfg is set, and
// captures its observable surface.
func observe(t *testing.T, cfg platform.Config, scfg stochastic.Config, gcfg *guard.Config) runObs {
	t.Helper()
	var gens []*stochastic.Generator
	sys, err := platform.Build(cfg, func(_ *platform.System, id int, port ocp.MasterPort) platform.Master {
		g := stochastic.New(id, scfg, port)
		gens = append(gens, g)
		return g
	})
	if err != nil {
		t.Fatal(err)
	}
	if gcfg != nil {
		sys.EnableGuard(*gcfg)
	}
	makespan, err := sys.Run(5_000_000)
	if err != nil {
		t.Fatalf("%v/%v shards=%d: %v", cfg.Interconnect, cfg.Kernel, cfg.Shards, err)
	}
	snap := sys.EngineSnapshot()
	obs := runObs{makespan: makespan, cycle: snap.Cycles, devices: snap.Devices}
	for _, g := range gens {
		obs.issued = append(obs.issued, g.Issued())
		obs.hists = append(obs.hists, g.Latency.Snapshot())
	}
	return obs
}

// TestKernelPropertyRandomScenarios samples the spatial scenario space:
// random pattern × distribution × fabric stochastic platforms agree under
// every kernel on the single engine on makespan, engine cycle, device
// count, per-master issue counts and the full read-latency histograms.
func TestKernelPropertyRandomScenarios(t *testing.T) {
	simtest.Differential(t, "random scenarios", simtest.Kernel, randomScenariosCampaign())
}

// TestShardDeterminismRandomScenarios runs the same campaign as
// TestKernelPropertyRandomScenarios across every shard count, the kernel
// rotating; the kernels on the single engine are that test's rows.
func TestShardDeterminismRandomScenarios(t *testing.T) {
	simtest.Differential(t, "random scenarios", simtest.Kernel|simtest.Shards|simtest.Split|simtest.Rotated, randomScenariosCampaign())
}

// randomScenariosCampaign runs 32 seeded random spatial stochastic
// platforms and renders what each run exposes. The first 20 are drawn on
// any fabric variant, the last 12 with a seed of their own, shorter streams
// and the ×pipes fabrics only.
func randomScenariosCampaign() simtest.Campaign {
	type trial struct {
		scfg stochastic.Config
		cfg  platform.Config
	}
	// 2x2 keeps every pattern legal (square, power of two).
	const w, h = 2, 2
	dests := privDests(w * h)
	trials := make([]trial, 32)
	for i := range trials {
		n, seed, count, span, fabrics := i, int64(i)*313+7, 100, 200, fabricVariants()
		if i >= 20 {
			n = i - 20
			seed, count, span, fabrics = int64(n)*877+11, 80, 160, fabrics[1:]
		}
		r := rand.New(rand.NewSource(seed))
		spatial := &stochastic.Spatial{
			Pattern:   stochastic.Pattern(r.Intn(int(stochastic.NearestNeighbor) + 1)),
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
			Count:   count + r.Intn(span),
			Seed:    int64(n),
			Spatial: spatial,
		}
		fv := fabrics[r.Intn(len(fabrics))]
		trials[i] = trial{scfg, platform.Config{Cores: w * h, Interconnect: fv.ic, NoC: noc.Config{Topology: fv.topo}}}
	}
	return func(t *testing.T, x simtest.Exec) []byte {
		var out bytes.Buffer
		for i, tr := range simtest.Items(x, trials) {
			fmt.Fprintf(&out, "trial %d: %+v\n", i, observe(t, execConfig(t, x, tr.cfg), tr.scfg, nil))
		}
		return out.Bytes()
	}
}

// TestARMKernelIndependent: miniARM platforms compute the same bytes on
// every kernel, on the bus and on the mesh. A core sleeps while blocked on
// its port and runs cache-hit spans ahead of the engine, so the rows
// compare everything a reference run exposes: makespan, final engine
// cycle, fabric work, each core's retired instructions, stalls, halt
// cycle, PC and registers, its caches' counters, and each master's
// serialised trace. The sleeping kernels must also skip cycles, or the
// sleep path would go untested.
func TestARMKernelIndependent(t *testing.T) {
	specs := []*prog.Spec{prog.MPMatrix(2, 4), prog.Cacheloop(2, 50), prog.DES(3, 1)}
	caches := cache.Config{Lines: 64, WordsPerLine: 4}
	simtest.Differential(t, "ARM platforms", simtest.Kernel, func(t *testing.T, x simtest.Exec) []byte {
		var out bytes.Buffer
		for _, spec := range specs {
			progs, err := spec.Assemble()
			if err != nil {
				t.Fatal(err)
			}
			for _, ic := range []platform.Interconnect{platform.AMBA, platform.XPipes} {
				cfg := execConfig(t, x, platform.Config{Cores: spec.Cores, Interconnect: ic, Trace: true})
				sys, err := platform.BuildARM(cfg, progs, caches, caches)
				if err != nil {
					t.Fatalf("%s %v %v: %v", spec.Name, ic, x, err)
				}
				for _, mon := range sys.Monitors {
					mon.Record()
				}
				makespan, err := sys.Run(spec.MaxCycles)
				if err != nil {
					t.Fatalf("%s %v %v: %v", spec.Name, ic, x, err)
				}
				if x.Kernel != "strict" && sys.Engine.SkippedCycles == 0 {
					t.Errorf("%s %v %v: no cycle skipped; the cores never slept", spec.Name, ic, x)
				}
				fmt.Fprintf(&out, "%s/%dP %v: makespan %d cycle %d", spec.Name, spec.Cores, ic, makespan, sys.Engine.Cycle())
				if sys.Bus != nil {
					fmt.Fprintf(&out, " busy %d", sys.Bus.BusyCycles())
				} else {
					fmt.Fprintf(&out, " flits %d", sys.Net.FlitsRouted())
				}
				out.WriteString("\n")
				for i, m := range sys.Masters {
					c := platform.ARMCore(m)
					fmt.Fprintf(&out, "  core %d: inst %d stall %d halt %d pc %#x regs", i, c.InstRet, c.StallCycles, c.HaltCycle(), c.PC())
					for r := 0; r < 16; r++ {
						fmt.Fprintf(&out, " %#x", c.Reg(r))
					}
					var trc bytes.Buffer
					if err := trace.New(i, sys.Engine.Clock(), sys.Monitors[i].Events()).Write(&trc); err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(&out, " trc %x\n", sha256.Sum256(trc.Bytes()))
					for _, ch := range []*cache.Cache{c.MemUnit().ICache(), c.MemUnit().DCache()} {
						fmt.Fprintf(&out, "    cache hits %d misses %d refills %d\n", ch.Hits, ch.Misses, ch.Refills)
					}
				}
			}
		}
		return out.Bytes()
	})
}
