package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"noctg/internal/core"
	"noctg/internal/journal"
	"noctg/internal/layout"
	"noctg/internal/mem"
	"noctg/internal/noc"
	"noctg/internal/ocp"
	"noctg/internal/platform"
	"noctg/internal/scenario"
	"noctg/internal/sim"
	"noctg/internal/stochastic"
	"noctg/internal/sweep"
)

// A unit driver times a tight loop over one layer's public API. Each
// driver hands measure a function doing n operations; measure sizes n so a
// batch lasts about sizes.unitBatch and reports the per-operation time of
// sizes.unitBatches batches, of which the ledger keeps the median.

// measure returns the per-operation nanoseconds of each batch.
func measure(sz sizes, ops func(n int)) []float64 {
	n := 1
	for {
		start := time.Now()
		ops(n)
		if d := time.Since(start); d >= sz.unitBatch/2 || n >= 1<<26 {
			if d > 0 && d < sz.unitBatch {
				n = int(float64(n) * float64(sz.unitBatch) / float64(d))
			}
			break
		}
		n *= 4
	}
	samples := make([]float64, sz.unitBatches)
	for i := range samples {
		start := time.Now()
		ops(n)
		samples[i] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return samples
}

func scale(samples []float64, by float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s * by
	}
	return out
}

// sinkPort accepts every request at once and never answers: the open-loop
// port the stochastic generators inject into.
type sinkPort struct{}

func (sinkPort) TryRequest(*ocp.Request) bool        { return true }
func (sinkPort) TakeResponse() (*ocp.Response, bool) { return nil, false }
func (sinkPort) Busy() bool                          { return false }

// pollPort accepts every request at once and answers every read with a
// zero word, so a TG polling for a non-zero flag spins forever.
type pollPort struct{ resp ocp.Response }

func (p *pollPort) TryRequest(*ocp.Request) bool        { return true }
func (p *pollPort) TakeResponse() (*ocp.Response, bool) { return &p.resp, true }
func (p *pollPort) Busy() bool                          { return false }

const pollProgram = `MASTER[0,0]
REGISTER flag 0x08000000
REGISTER want 1
BEGIN
poll:
	Read(flag)
	If rdreg != want then poll
	Halt
END`

// txnProgram is bench_test's transaction loop: single-word write, blocking
// read and both burst kinds, so every hot path of a fabric is exercised.
const txnProgram = `MASTER[0,0]
REGISTER addr 0x08000000
REGISTER data 42
BEGIN
start:
	Write(addr, data)
	Read(addr)
	BurstWrite(addr, data, 4)
	BurstRead(addr, 4)
	Jump(start)
END`

// busySpinProgram is bench_test's saturated master: one instruction
// retired every cycle with a shared-memory write every 31 cycles, so no
// cycle can be skipped and the event kernel ticks exactly this master.
func busySpinProgram() string {
	var b strings.Builder
	b.WriteString("MASTER[0,0]\nREGISTER addr 0x08000000\nREGISTER data 42\nREGISTER zero 0\nREGISTER one 1\nBEGIN\nstart:\n")
	for i := 0; i < 30; i++ {
		b.WriteString("\tIf zero == one then start\n")
	}
	b.WriteString("\tWrite(addr, data)\n\tJump(start)\nEND")
	return b.String()
}

const idleProgram = "MASTER[0,0]\nBEGIN\nstart:\nIdle(100000)\nJump(start)\nEND"

func assembleAll(srcs ...string) ([]*core.Program, error) {
	progs := make([]*core.Program, len(srcs))
	for i, src := range srcs {
		p, err := core.Assemble(src)
		if err != nil {
			return nil, err
		}
		progs[i] = p
	}
	return progs, nil
}

func never() bool { return false }

// txnSystem builds the 2-TG transaction-loop platform on a fabric and
// warms its reusable buffers.
func txnSystem(ic platform.Interconnect) (*platform.System, error) {
	progs, err := assembleAll(txnProgram, txnProgram)
	if err != nil {
		return nil, err
	}
	sys, err := platform.BuildTG(platform.Config{Cores: 2, Interconnect: ic}, progs)
	if err != nil {
		return nil, err
	}
	sys.Engine.RunFor(4096)
	return sys, nil
}

// nocRig is a 4×4 mesh driven without an engine: six master NIs on the
// first nodes, six small RAMs on the last.
type nocRig struct {
	net   *noc.Network
	ports []ocp.MasterPort
	cycle uint64
	data  [4]uint32
}

func newNocRig() (*nocRig, error) {
	r := &nocRig{}
	r.net = noc.New(noc.Config{Width: 4, Height: 4}, func() uint64 { return r.cycle })
	const n = 6
	for i := 0; i < n; i++ {
		r.ports = append(r.ports, r.net.AttachMaster(i))
		rng := ocp.AddrRange{Base: layout.PrivBaseFor(i), Size: 4096}
		if err := r.net.AttachSlave(15-i, mem.NewRAM(fmt.Sprintf("ram%d", i), rng.Base, rng.Size, 1), rng); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (r *nocRig) tick() {
	r.net.Tick(r.cycle)
	r.cycle++
}

// oneFlit keeps exactly one packet in flight: master 0 reads from the
// farthest slave and re-issues when the response lands.
func (r *nocRig) oneFlit(n int) {
	req := ocp.Request{Cmd: ocp.Read, Addr: layout.PrivBaseFor(0), Burst: 1}
	p := r.ports[0]
	for i := 0; i < n; i++ {
		if _, ok := p.TakeResponse(); ok || !p.Busy() {
			p.TryRequest(&req)
		}
		r.tick()
	}
}

// saturated has every master NI injecting posted 4-word bursts whenever
// its NI accepts one.
func (r *nocRig) saturated(n int) {
	reqs := make([]ocp.Request, len(r.ports))
	for i := range reqs {
		reqs[i] = ocp.Request{Cmd: ocp.BurstWrite, Addr: layout.PrivBaseFor((i + 1) % len(r.ports)),
			Burst: 4, Data: r.data[:], MasterID: i}
	}
	for i := 0; i < n; i++ {
		for k, p := range r.ports {
			p.TryRequest(&reqs[k])
		}
		r.tick()
	}
}

// arrivalConfigs are the three temporal models of the stochastic layer.
func arrivalConfigs() map[string]stochastic.Config {
	return map[string]stochastic.Config{
		"poisson": {Seed: 1, Dist: stochastic.Poisson, MeanGap: 4},
		"mmpp": {Seed: 1, MMPP: &stochastic.MMPP{
			StateGaps: []float64{3, 0}, StateDwells: []float64{80, 160}}},
		"selfsim": {Seed: 1, SelfSimilar: &stochastic.SelfSimilar{
			Sources: 16, Hurst: 0.8, OnMean: 50, OffMean: 100, PeakGap: 4}},
	}
}

// overheadPoints are Count=1 stochastic AMBA points: running them costs
// the per-point constants of the sweep runner and nothing else.
func overheadPoints(n int) []sweep.Point {
	g := sweep.Grid{
		Workloads: []sweep.Workload{{Kind: sweep.KindStochastic, Dist: "uniform", Cores: 2, MeanGap: 8, Count: 1}},
		Fabrics:   []sweep.Fabric{{Interconnect: sweep.FabricAMBA}},
	}
	for s := 1; s <= n; s++ {
		g.Seeds = append(g.Seeds, int64(s))
	}
	return g.Expand()
}

// unitAux carries driver by-products the ledger's cost model needs.
type unitAux struct {
	satFlitsPerTick float64 // flit-hops per Network.Tick in the saturated driver
}

// runUnits runs every unit driver and adds its samples to m.
func runUnits(cfg *config, m metricSet) (unitAux, error) {
	sz := cfg.sz
	var aux unitAux

	// sim: strict dispatch over 16 no-op devices, per device-tick.
	{
		e := sim.NewEngine(sim.Clock{})
		ticks := 0
		for i := 0; i < 16; i++ {
			e.Add(sim.DeviceFunc(func(uint64) { ticks++ }))
		}
		m["sim.dispatch_ns"] = scale(measure(sz, func(n int) {
			for i := 0; i < n; i++ {
				e.Step()
			}
		}), 1.0/16)
	}

	// sim: event-kernel scheduling, per cycle, 1 busy + 15 sleeping TGs.
	{
		srcs := []string{busySpinProgram()}
		for i := 0; i < 15; i++ {
			srcs = append(srcs, idleProgram)
		}
		progs, err := assembleAll(srcs...)
		if err != nil {
			return aux, err
		}
		sys, err := platform.BuildTG(platform.Config{Cores: len(progs), Kernel: platform.KernelEvent}, progs)
		if err != nil {
			return aux, err
		}
		m["sim.event_sched_ns"] = measure(sz, func(n int) {
			sys.Engine.RunEvery(uint64(n), 32, never) //nolint:errcheck // budget exhaustion is the stop
		})
	}

	// core: Device.Tick of a polling program on a port that always answers.
	{
		progs, err := assembleAll(pollProgram)
		if err != nil {
			return aux, err
		}
		d, err := core.NewDevice(progs[0], &pollPort{resp: ocp.Response{Data: []uint32{0}}})
		if err != nil {
			return aux, err
		}
		var c uint64
		m["core.tick_ns"] = measure(sz, func(n int) {
			for i := 0; i < n; i++ {
				d.Tick(c)
				c++
			}
		})
	}

	// amba, noc: the 2-TG transaction loop, per engine step.
	for name, ic := range map[string]platform.Interconnect{"amba.txn_ns": platform.AMBA, "noc.txn_ns": platform.XPipes} {
		sys, err := txnSystem(ic)
		if err != nil {
			return aux, err
		}
		m[name] = measure(sz, func(n int) {
			for i := 0; i < n; i++ {
				sys.Engine.Step()
			}
		})
	}

	// noc: Network.Tick on a 4×4 mesh in three occupancy regimes.
	{
		rig, err := newNocRig()
		if err != nil {
			return aux, err
		}
		m["noc.tick_empty_ns"] = measure(sz, func(n int) {
			for i := 0; i < n; i++ {
				rig.tick()
			}
		})
		m["noc.tick_oneflit_ns"] = measure(sz, rig.oneFlit)
		if rig, err = newNocRig(); err != nil {
			return aux, err
		}
		rig.saturated(2000) // fill the buffers before timing
		flits, ticks := rig.net.FlitsRouted(), rig.cycle
		m["noc.tick_saturated_ns"] = measure(sz, rig.saturated)
		aux.satFlitsPerTick = float64(rig.net.FlitsRouted()-flits) / float64(rig.cycle-ticks)
	}

	// stochastic: Generator.Tick against a sink port, per tick.
	for name, scfg := range arrivalConfigs() {
		scfg.ReadFraction = -1 // posted writes: the injection path alone
		scfg.Count = 1 << 30
		scfg.Ranges = []ocp.AddrRange{{Base: 0, Size: 0x1000}}
		g := stochastic.New(0, scfg, sinkPort{})
		var c uint64
		m["stochastic.tick_ns."+name] = measure(sz, func(n int) {
			for i := 0; i < n; i++ {
				g.Tick(c)
				c++
			}
		})
	}

	// platform: build cost of the sweep's point platforms and of the mesh.
	{
		scfg := stochastic.Config{Dist: stochastic.Uniform, MeanGap: 8, Count: 400, Seed: 1,
			Ranges: []ocp.AddrRange{layout.SharedRange()}}
		factory := func(_ *platform.System, id int, port ocp.MasterPort) platform.Master {
			return stochastic.New(id, scfg, port)
		}
		var buildErr error
		build := func(pc platform.Config) func(int) {
			return func(n int) {
				for i := 0; i < n; i++ {
					if _, err := platform.Build(pc, factory); err != nil {
						buildErr = err
					}
				}
			}
		}
		ambaCfg := platform.Config{Cores: 2, Trace: true, Kernel: platform.KernelEvent}
		m["platform.build_us.amba"] = scale(measure(sz, build(ambaCfg)), 1e-3)
		m["platform.build_us.xpipes"] = scale(measure(sz, build(platform.Config{Cores: 4,
			Interconnect: platform.XPipes, NoC: noc.Config{Width: 4, Height: 3},
			Trace: true, Kernel: platform.KernelEvent})), 1e-3)
		if buildErr != nil {
			return aux, buildErr
		}
		const builds = 16
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		build(ambaCfg)(builds)
		runtime.ReadMemStats(&after)
		m.set("platform.build_alloc_kb", float64(after.TotalAlloc-before.TotalAlloc)/builds/1024)

		for i := 0; i < sz.unitBatches; i++ {
			start := time.Now()
			if _, err := buildMesh(cfg, min(2, cfg.nproc)); err != nil {
				return aux, err
			}
			m.add("platform.build_ms.mesh16", time.Since(start).Seconds()*1e3)
		}
	}

	// sweep: per-point orchestration overhead and artifact rendering.
	{
		pts := overheadPoints(sz.overheadPts)
		var res []sweep.Result
		var runErr error
		m["sweep.point_overhead_us"] = scale(measure(sz, func(n int) {
			for i := 0; i < n; i++ {
				if res, runErr = (sweep.Runner{Workers: 1}).Run(pts); runErr != nil {
					return
				}
			}
		}), 1e-3/float64(len(pts)))
		if runErr != nil {
			return aux, runErr
		}
		m["sweep.render_us_per_point"] = scale(measure(sz, func(n int) {
			for i := 0; i < n; i++ {
				if err := sweep.WriteJSON(io.Discard, res); err != nil {
					runErr = err
				}
				if err := sweep.WriteCSV(io.Discard, res); err != nil {
					runErr = err
				}
			}
		}), 1e-3/float64(len(pts)))
		if runErr != nil {
			return aux, runErr
		}
	}

	// scenario: compiling the library into points and curves.
	{
		var compErr error
		m["scenario.compile_ms"] = scale(measure(sz, func(n int) {
			for i := 0; i < n; i++ {
				if _, err := scenario.Points(scenario.Library()); err != nil {
					compErr = err
				}
				if _, err := scenario.Curves(scenario.Library()); err != nil {
					compErr = err
				}
			}
		}), 1e-6)
		if compErr != nil {
			return aux, compErr
		}
	}

	// journal: one point's Start + Done with a 2 KB result, fsync included.
	{
		dir, err := os.MkdirTemp(cfg.tmp, "unit-journal-")
		if err != nil {
			return aux, err
		}
		defer os.RemoveAll(dir)
		w, err := journal.Create(filepath.Join(dir, "unit.journal"))
		if err != nil {
			return aux, err
		}
		result := []byte(`{"pad":"` + strings.Repeat("x", 2048) + `"}`)
		var k int
		var appendErr error
		m["journal.append_sync_us"] = scale(measure(sz, func(n int) {
			for i := 0; i < n; i++ {
				key := fmt.Sprintf("point-%d", k)
				k++
				if err := w.Start(key, 1); err != nil {
					appendErr = err
				}
				if err := w.Done(key, 1, journal.OutcomeOK, "", result); err != nil {
					appendErr = err
				}
			}
		}), 1e-3)
		if err := w.Close(); err != nil {
			return aux, err
		}
		if appendErr != nil {
			return aux, appendErr
		}
	}

	// analytic: compiling the estimator, and one curve's worth of estimates.
	{
		cs, err := scenario.Curves(scenario.Library()[:1])
		if err != nil {
			return aux, err
		}
		w, f := cs[0].Workload, cs[0].Fabric
		est, err := sweep.NewEstimator(w, f)
		if err != nil {
			return aux, err
		}
		m["analytic.compile_us"] = scale(measure(sz, func(n int) {
			for i := 0; i < n; i++ {
				est, _ = sweep.NewEstimator(w, f) // compiled once above without error
			}
		}), 1e-3)
		var sink float64
		m["analytic.estimate_us"] = scale(measure(sz, func(n int) {
			for i := 0; i < n; i++ {
				sink += est.Estimate().KneeGap
				for _, gap := range sweep.DefaultCurveGaps {
					sink += est.LatencyAt(gap)
				}
			}
		}), 1e-3)
		_ = sink
	}
	return aux, nil
}
