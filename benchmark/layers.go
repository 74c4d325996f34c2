package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"time"

	"noctg/internal/core"
	"noctg/internal/exp"
	"noctg/internal/guard"
	"noctg/internal/layout"
	"noctg/internal/noc"
	"noctg/internal/ocp"
	"noctg/internal/platform"
	"noctg/internal/sim"
	"noctg/internal/stochastic"
	"noctg/internal/sweep"
)

// The traced pass's workload-specific extras: the shimmed simulations
// behind the share metrics, and the cross-configuration ratios (kernels,
// guards, workers, shards, journal on/off). Every extra is one more run of
// work the end-to-end pass already did, so ratios compare like with like.
// A ratio's two sides run back to back inside one round, so a host speed
// phase hits both; sizes.ratioRounds rounds, alternating the order, give
// the samples whose median is reported.

// shimResult is one workload's shim pass.
type shimResult struct {
	totals shimTotals
	runS   float64 // wall of the same simulations without shims
	// execCycles are the cycles the engines actually executed (not
	// skipped) in the shimmed runs; the ledger's fabric term counts them.
	execCycles float64
}

func (r *shimResult) add(stats []*shimStats, sys *platform.System) {
	t := sumShims(stats)
	r.totals.ticks += t.ticks
	r.totals.calls += t.calls
	r.totals.tickS += t.tickS
	r.totals.portS += t.portS
	r.execCycles += float64(sys.Engine.Cycle() - sys.Engine.SkippedCycles)
}

// buildShimmed builds a platform whose masters and ports sit behind
// timing shims.
func buildShimmed(lc *layerCtx, pc platform.Config, build func(*platform.System, int, ocp.MasterPort) sleeperMaster) (*platform.System, *[]*shimStats, error) {
	factory, stats := shimFactory(build)
	end := lc.tr.begin("platform.Build(shim)", "platform")
	sys, err := platform.Build(pc, factory)
	end()
	return sys, stats, err
}

// runShimmed runs a shimmed platform to completion and returns its makespan.
func runShimmed(lc *layerCtx, sys *platform.System, maxCycles uint64) (uint64, error) {
	end := lc.tr.begin("System.Run(shim)", "sim")
	makespan, err := sys.Run(maxCycles)
	end()
	return makespan, err
}

func secs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func (w *paperTG) layers(lc *layerCtx) error {
	rows := lc.last.data.([]*paperRow)
	kernels := []platform.KernelMode{platform.KernelEvent, platform.KernelStrict, platform.KernelSkip}
	for round := 0; round < w.cfg.sz.ratioRounds; round++ {
		// One replay per kernel, interleaved per row.
		walls := make([]float64, len(kernels))
		for _, row := range rows {
			if row.err != nil {
				continue
			}
			for k, kernel := range kernels {
				opt := w.opt
				opt.Platform.Kernel = kernel
				end := lc.tr.begin("exp.RunTG("+kernel.String()+")", "sim")
				tg, err := exp.RunTG(row.spec, row.progs, opt)
				end()
				if err != nil {
					return err
				}
				walls[k] += tg.Wall.Seconds()
			}
		}
		if walls[0] > 0 {
			lc.m.add("sim.strict_vs_event", walls[1]/walls[0])
			lc.m.add("sim.skip_vs_event", walls[2]/walls[0])
		}
	}

	var gainLog float64
	var shim shimResult
	ok, same := 0, true
	for _, row := range rows {
		if row.err != nil {
			continue
		}
		ok++
		tgWall := median(secs(row.tgWalls))
		gainLog += math.Log(row.refWall.Seconds() / tgWall)

		// The shimmed replay: same programs, same kernel, masters and ports
		// behind timing shims.
		progs := row.progs
		pc := w.opt.Platform
		pc.Cores, pc.Kernel = row.spec.Cores, platform.KernelEvent
		sys, stats, err := buildShimmed(lc, pc, func(_ *platform.System, id int, port ocp.MasterPort) sleeperMaster {
			d, err := core.NewDevice(progs[id], port)
			if err != nil {
				panic(fmt.Sprintf("benchmark: TG %d: %v", id, err)) // programs already ran unshimmed
			}
			return d
		})
		if err != nil {
			return err
		}
		makespan, err := runShimmed(lc, sys, row.spec.MaxCycles)
		if err != nil {
			return err
		}
		same = same && makespan == row.tgMakespans[0]
		shim.add(*stats, sys)
		shim.runS += tgWall
	}
	if ok == 0 {
		return fmt.Errorf("no paper row ran")
	}
	lc.checks = append(lc.checks, checkf("shimmed replays keep the unshimmed makespans", same,
		"a shimmed TG replay finished on a different cycle"))
	lc.m.set("exp.tg_gain", math.Exp(gainLog/float64(ok)))
	master, port, fabric := shim.totals.shares(shim.runS)
	lc.m.set("core.tick_share", master)
	lc.m.set("ocp.port_call_share", port)
	lc.m.set("amba.fabric_share", fabric)
	// The shim pass replays each row once; the body replays it paperReplays
	// times.
	lc.masterTicks = float64(shim.totals.ticks) * float64(w.cfg.sz.paperReplays)
	return nil
}

// timedRun runs points on a runner and returns the wall time.
func timedRun(lc *layerCtx, label string, r sweep.Runner, pts []sweep.Point) (float64, error) {
	runtime.GC()
	end := lc.tr.begin("sweep.Runner.Run("+label+")", "sweep")
	start := time.Now()
	res, err := r.Run(pts)
	wall := time.Since(start).Seconds()
	end()
	if err != nil {
		return 0, err
	}
	for _, x := range res {
		if x.Err != "" {
			return 0, fmt.Errorf("%s: point %d: %s", label, x.ID, x.Err)
		}
	}
	return wall, nil
}

// pointPlatform mirrors the sweep runner's platform configuration of a
// stochastic grid point, so the driver can build the same simulation
// through platform.Build with its own master factory.
func pointPlatform(p sweep.Point) (platform.Config, stochastic.Config, error) {
	scfg, err := p.Workload.StochasticConfig(p.Seed)
	if err != nil {
		return platform.Config{}, scfg, err
	}
	scfg.Ranges = []ocp.AddrRange{layout.SharedRange()}
	topo, err := noc.ParseTopology(p.Fabric.Topology)
	if err != nil {
		return platform.Config{}, scfg, err
	}
	ic := platform.AMBA
	if p.Fabric.Interconnect == sweep.FabricXPipes {
		ic = platform.XPipes
	}
	return platform.Config{
		Cores:        p.Workload.Cores,
		Interconnect: ic,
		NoC: noc.Config{Width: p.Fabric.MeshWidth, Height: p.Fabric.MeshHeight,
			Topology: topo, BufferFlits: p.Fabric.BufferFlits},
		MemWaitStates: p.Fabric.MemWaitStates,
		Clock:         sim.Clock{PeriodNS: p.ClockPeriodNS},
		Trace:         true,
		Kernel:        platform.KernelEvent,
	}, scfg, nil
}

// stochasticMaxCycles is the sweep runner's budget for stochastic points.
const stochasticMaxCycles = 2_000_000

func (w *libraryXPipes) layers(lc *layerCtx) error {
	res := lc.last.data.([]sweep.Result)
	pts, want := seedHalf(w.points, res, w.cfg.seed)
	g := guard.Default()
	runs := []struct {
		label  string
		runner sweep.Runner
	}{
		{"event", sweep.Runner{Workers: 1}},
		{"strict", sweep.Runner{Workers: 1, Kernel: platform.KernelStrict}},
		{"skip", sweep.Runner{Workers: 1, Kernel: platform.KernelSkip}},
		{"guard", sweep.Runner{Workers: 1, Guard: &g}},
		{"all workers", sweep.Runner{Workers: w.cfg.nproc}},
	}
	var eventWalls []float64
	for round := 0; round < w.cfg.sz.ratioRounds; round++ {
		walls := make(map[string]float64)
		for i := range runs {
			r := runs[i]
			if round%2 == 1 {
				r = runs[len(runs)-1-i]
			}
			wall, err := timedRun(lc, r.label, r.runner, pts)
			if err != nil {
				return err
			}
			walls[r.label] = wall
		}
		eventWalls = append(eventWalls, walls["event"])
		lc.m.add("sim.strict_vs_event", walls["strict"]/walls["event"])
		lc.m.add("sim.skip_vs_event", walls["skip"]/walls["event"])
		lc.m.add("guard.overhead_pct", 100*(walls["guard"]/walls["event"]-1))
		lc.m.add("sweep.worker_speedup", walls["event"]/walls["all workers"])
	}

	// The shimmed seed half, built by the driver through platform.Build.
	var shim shimResult
	same := true
	for i, p := range pts {
		pc, scfg, err := pointPlatform(p)
		if err != nil {
			return err
		}
		sys, stats, err := buildShimmed(lc, pc, func(_ *platform.System, id int, port ocp.MasterPort) sleeperMaster {
			return stochastic.New(id, scfg, port)
		})
		if err != nil {
			return err
		}
		makespan, err := runShimmed(lc, sys, stochasticMaxCycles)
		if err != nil {
			return err
		}
		same = same && makespan == want[i].MakespanCycles
		shim.add(*stats, sys)
	}
	lc.checks = append(lc.checks, checkf("shimmed points keep the runner's makespans", same,
		"a shimmed library point finished on a different cycle than sweep.Runner's"))
	// Shares are of the runner's wall over the same half: it holds two AMBA
	// points in thirty, so the remainder is reported as the noc's.
	master, port, fabric := shim.totals.shares(median(eventWalls))
	lc.m.set("stochastic.tick_share", master)
	lc.m.set("ocp.port_call_share", port)
	lc.m.set("noc.fabric_share", fabric)
	scale := float64(len(w.points)) / float64(len(pts))
	lc.masterTicks = float64(shim.totals.ticks) * scale
	lc.execCycles = shim.execCycles * scale
	return nil
}

func (w *journalAMBA) layers(lc *layerCtx) error {
	for round := 0; round < w.cfg.sz.ratioRounds; round++ {
		plain, err := timedRun(lc, "no journal", sweep.Runner{Workers: 1}, w.points)
		if err != nil {
			return err
		}
		dir, err := os.MkdirTemp(w.cfg.tmp, "journal-extra-")
		if err != nil {
			return err
		}
		runtime.GC()
		end := lc.tr.begin("sweep.Runner.RunJournaled(extra)", "journal")
		start := time.Now()
		_, _, err = sweep.Runner{Workers: 1}.RunJournaled(w.points, sweep.JournalConfig{Path: filepath.Join(dir, "sweep.journal")})
		journaled := time.Since(start).Seconds()
		end()
		os.RemoveAll(dir)
		if err != nil {
			return err
		}
		lc.m.add("journal.overhead_us_per_point", (journaled-plain)*1e6/float64(len(w.points)))
	}
	end := lc.tr.begin("sweep.Runner.Resume", "journal")
	start := time.Now()
	_, _, err := sweep.Runner{Workers: 1}.Resume(w.points, w.journalPath())
	wall := time.Since(start)
	end()
	if err != nil {
		return err
	}
	lc.m.set("journal.resume_ms", wall.Seconds()*1e3)
	return nil
}

func (w *meshSharded) layers(lc *layerCtx) error {
	// The same cycles on two shards, one shard and the legacy single engine.
	timed := func(shards int) (*platform.System, float64, error) {
		sys, err := buildMesh(w.cfg, shards)
		if err != nil {
			return nil, 0, err
		}
		if err := advance(sys, w.cfg.sz.meshWarmup); err != nil {
			return nil, 0, err
		}
		runtime.GC()
		end := lc.tr.begin(fmt.Sprintf("Advance(shards=%d)", shards), "shard")
		start := time.Now()
		err = advance(sys, w.cfg.sz.meshCycles)
		wall := time.Since(start).Seconds()
		end()
		return sys, wall, err
	}
	var one *platform.System
	var oneWalls []float64
	two := w.shards()
	order := []int{two, 1, 0}
	for round := 0; round < w.cfg.sz.ratioRounds; round++ {
		walls := make(map[int]float64)
		for _, shards := range order {
			sys, wall, err := timed(shards)
			if err != nil {
				return err
			}
			walls[shards] = wall
			if shards == 1 {
				one = sys
			}
		}
		oneWalls = append(oneWalls, walls[1])
		lc.m.add("shard.speedup_2", walls[1]/walls[two])
		lc.m.add("shard.overhead_1", walls[1]/walls[0])
		slices.Reverse(order)
	}
	wall1 := median(oneWalls)

	// The shimmed one-shard run: one goroutine, so the shims need no locks.
	sys, stats, err := buildShimmed(lc, meshConfig(w.cfg, 1), meshFactory(w.cfg))
	if err != nil {
		return err
	}
	if err := advance(sys, w.cfg.sz.meshWarmup); err != nil {
		return err
	}
	for _, st := range *stats {
		*st = shimStats{}
	}
	skipped := sys.Engine.SkippedCycles
	end := lc.tr.begin("Advance(shim)", "shard")
	err = advance(sys, w.cfg.sz.meshCycles)
	end()
	if err != nil {
		return err
	}
	lc.checks = append(lc.checks, checkf("shimmed mesh keeps the unshimmed counters",
		reflect.DeepEqual(counters(sys), counters(one)), "stats counters differ with shims in place"))
	var shim shimResult
	shim.add(*stats, sys)
	master, port, fabric := shim.totals.shares(wall1)
	lc.m.set("stochastic.tick_share", master)
	lc.m.set("ocp.port_call_share", port)
	lc.m.set("noc.fabric_share", fabric)
	lc.masterTicks = float64(shim.totals.ticks)
	lc.execCycles = float64(w.cfg.sz.meshCycles - (sys.Engine.SkippedCycles - skipped))
	lc.ledgerWallS = wall1
	return nil
}
