// Package platform assembles complete MPARM-like systems: N master devices
// (miniARM cores, traffic generators, or baseline generators), an
// interconnect (AMBA AHB-style bus or ×pipes-style NoC), per-core private
// memories, the shared memory and the hardware semaphore bank.
//
// Masters are supplied through a factory so that processor models and TG
// devices are interchangeable behind their OCP ports — the exchange depicted
// in the paper's Figure 1.
package platform

import (
	"fmt"

	"noctg/internal/amba"
	"noctg/internal/cache"
	"noctg/internal/cpu"
	"noctg/internal/layout"
	"noctg/internal/mem"
	"noctg/internal/noc"
	"noctg/internal/ocp"
	"noctg/internal/shard"
	"noctg/internal/sim"
)

// Interconnect selects the fabric under evaluation.
type Interconnect int

const (
	// AMBA is the shared-bus reference interconnect (Table 2).
	AMBA Interconnect = iota
	// XPipes is the packet-switched mesh NoC.
	XPipes
)

func (i Interconnect) String() string {
	switch i {
	case AMBA:
		return "amba"
	case XPipes:
		return "xpipes"
	}
	return fmt.Sprintf("Interconnect(%d)", int(i))
}

// Master is a device that drives an OCP master port and eventually finishes.
type Master interface {
	sim.Device
	Done() bool
}

// KernelMode selects the simulation kernel for a platform. Every mode
// computes byte-identical simulated state; they differ only in host time.
// Every master, the miniARM core included, is a sim.Sleeper, so ARM
// reference runs sleep on KernelEvent and KernelSkip like TG runs do; the
// paper's like-for-like speedup, both sides ticked every cycle, is both
// sides on KernelStrict (exp.Row.GainStrict).
type KernelMode int

const (
	// KernelEvent, the zero value, ticks only the devices whose scheduled
	// wake is due each cycle and jumps all-asleep spans like KernelSkip;
	// per-cycle cost scales with the awake set, not the core count.
	KernelEvent KernelMode = iota
	// KernelStrict ticks every device on every cycle.
	KernelStrict
	// KernelSkip fast-forwards over cycles in which every device sleeps.
	KernelSkip
)

func (k KernelMode) String() string {
	switch k {
	case KernelStrict:
		return "strict"
	case KernelSkip:
		return "skip"
	case KernelEvent:
		return "event"
	}
	return fmt.Sprintf("KernelMode(%d)", int(k))
}

// ParseKernel converts a -kernel flag value into a KernelMode.
func ParseKernel(s string) (KernelMode, error) {
	switch s {
	case "event":
		return KernelEvent, nil
	case "strict":
		return KernelStrict, nil
	case "skip":
		return KernelSkip, nil
	}
	return 0, fmt.Errorf("platform: unknown kernel %q (want strict, skip or event)", s)
}

// kernel maps a KernelMode onto the engine's kernel.
func (k KernelMode) kernel() sim.Kernel {
	switch k {
	case KernelStrict:
		return sim.KernelStrict
	case KernelSkip:
		return sim.KernelSkip
	}
	return sim.KernelEvent
}

// MasterFactory builds master id over the given port. The system's memories
// are already constructed when the factory runs (so program loaders may use
// them); the port passed in is already wrapped by its monitor when
// Config.Trace is set.
type MasterFactory func(s *System, id int, port ocp.MasterPort) Master

// Config describes a platform instance.
type Config struct {
	// Cores is the number of master devices.
	Cores int
	// Interconnect picks the fabric (default AMBA).
	Interconnect Interconnect
	// Bus configures the AMBA fabric.
	Bus amba.Config
	// NoC configures the ×pipes fabric. Width×Height must fit
	// Cores + Cores private memories + shared + semaphores; leave zero to
	// auto-size.
	NoC noc.Config
	// MemWaitStates is the intrinsic slave access time (default 1).
	MemWaitStates uint64
	// Clock sets the simulated clock; the zero value is the paper's
	// default 5 ns period.
	Clock sim.Clock
	// Trace puts an ocp.Monitor on every master port. A monitor always
	// meters (transaction and read counters, latency histograms, the
	// "port<i>/" registry entries) at no allocation; it records an event
	// log only once somebody calls its Record, which exp.RunReference alone
	// does.
	Trace bool
	// Kernel selects the simulation kernel (default KernelEvent); strict,
	// skip and event runs produce identical simulated state (the
	// differential tests assert byte-identical sweep artifacts), differing
	// only in host time.
	Kernel KernelMode
	// Shards > 1 partitions an XPipes fabric into that many spatial shards
	// (clamped to the mesh height), each running on its own engine and OS
	// thread under the conservative time-window protocol (see internal/
	// shard). It is a pure execution knob: every value computes
	// byte-identical simulated state. 0 runs the one engine every other
	// platform uses; 1 drives the unpartitioned fabric through the shard
	// runner (its k = 1 case, no code of its own). The bus fabric has no
	// spatial structure to cut; AMBA platforms ignore the knob.
	Shards int
}

func (c Config) withDefaults() Config {
	if c.MemWaitStates == 0 {
		c.MemWaitStates = 1
	}
	return c
}

// idler is the draining interface both fabrics implement.
type idler interface{ Idle() bool }

// System is an assembled platform ready to run.
type System struct {
	Engine  *sim.Engine
	Cfg     Config
	Masters []Master
	// Monitors holds the per-port monitors, index-aligned with Masters; the
	// entries are non-nil only when Cfg.Trace. They meter from the first
	// cycle; none records until its Record is called.
	Monitors []*ocp.Monitor
	Privs    []*mem.RAM
	Shared   *mem.RAM
	Sems     *mem.SemBank

	Bus *amba.Bus    // set when Interconnect == AMBA
	Net *noc.Network // set when Interconnect == XPipes

	// Sharded is the parallel runner driving the per-shard engines when
	// Cfg.Shards > 0 on an XPipes platform; nil otherwise. When set,
	// Engine aliases shard 0's engine (all shard engines share the clock
	// and agree on the cycle between segments).
	Sharded *shard.Runner

	// Stats is the system's unified stats registry: every stats-exporting
	// device (masters, trace monitors, the fabric) registers its counters
	// and histograms here at build time, under "master<i>/", "port<i>/",
	// "bus/" and "noc/" scopes. Phased measurement syncs, snapshots and
	// resets the whole population at deterministic phase boundaries.
	Stats *sim.Registry

	fabric idler
}

// Build assembles a system with Cores masters produced by factory.
func Build(cfg Config, factory MasterFactory) (*System, error) {
	cfg = cfg.withDefaults()
	if cfg.Cores <= 0 {
		return nil, fmt.Errorf("platform: need at least one core, got %d", cfg.Cores)
	}
	if factory == nil {
		return nil, fmt.Errorf("platform: nil master factory")
	}
	e := sim.NewEngine(cfg.Clock)
	e.SetKernel(cfg.Kernel.kernel())
	s := &System{Engine: e, Cfg: cfg}

	s.Shared = mem.NewRAM("shared", layout.SharedBase, layout.SharedSize, cfg.MemWaitStates)
	s.Sems = mem.NewSemBank("sem", layout.SemBase, layout.SemCount, cfg.MemWaitStates)
	for i := 0; i < cfg.Cores; i++ {
		s.Privs = append(s.Privs, mem.NewRAM(fmt.Sprintf("priv%d", i),
			layout.PrivBaseFor(i), layout.PrivSize, cfg.MemWaitStates))
	}

	ports := make([]ocp.MasterPort, cfg.Cores)
	// Sharded XPipes builds replace the single engine with one per region;
	// regions/shardEngines stay nil on every other path.
	var regions []*noc.Region
	var shardEngines []*sim.Engine
	switch cfg.Interconnect {
	case AMBA:
		bus := amba.New(cfg.Bus, e.Cycle)
		for i := 0; i < cfg.Cores; i++ {
			ports[i] = bus.NewMasterPort()
		}
		for i, p := range s.Privs {
			if err := bus.MapSlave(p, layout.PrivRange(i)); err != nil {
				return nil, err
			}
		}
		if err := bus.MapSlave(s.Shared, layout.SharedRange()); err != nil {
			return nil, err
		}
		if err := bus.MapSlave(s.Sems, layout.SemRange()); err != nil {
			return nil, err
		}
		s.Bus = bus
		s.fabric = bus
	case XPipes:
		// Verify the effective geometry before attaching anything: the
		// mesh itself panics on a double-occupied node.
		ncfg, err := AutoMesh(cfg.Cores, cfg.NoC)
		if err != nil {
			return nil, err
		}
		net := noc.New(ncfg, e.Cycle)
		// Placement: masters fill nodes from the start, slaves from the end
		// (private memory i sits opposite its core, shared/semaphores in
		// between) — a plain but deterministic floorplan.
		node := 0
		for i := 0; i < cfg.Cores; i++ {
			ports[i] = net.AttachMaster(node)
			node++
		}
		last := net.Nodes() - 1
		for i, p := range s.Privs {
			if err := net.AttachSlave(last, p, layout.PrivRange(i)); err != nil {
				return nil, err
			}
			last--
		}
		if err := net.AttachSlave(last, s.Shared, layout.SharedRange()); err != nil {
			return nil, err
		}
		last--
		if err := net.AttachSlave(last, s.Sems, layout.SemRange()); err != nil {
			return nil, err
		}
		if last <= node {
			return nil, fmt.Errorf("platform: mesh %dx%d too small for %d cores and %d slaves",
				ncfg.Width, ncfg.Height, cfg.Cores, cfg.Cores+2)
		}
		s.Net = net
		s.fabric = net
		if cfg.Shards > 0 {
			// Partition after every NI is attached and before anything
			// ticks.
			regions = net.Partition(cfg.Shards)
			shardEngines = make([]*sim.Engine, len(regions))
			for si := range regions {
				se := sim.NewEngine(cfg.Clock)
				se.SetKernel(cfg.Kernel.kernel())
				shardEngines[si] = se
			}
		}
	default:
		return nil, fmt.Errorf("platform: unknown interconnect %v", cfg.Interconnect)
	}

	if shardEngines == nil {
		e.Reserve(cfg.Cores + 1) // the masters, then the fabric
	}
	// shardOf maps master i to its region's engine: masters occupy fabric
	// nodes 0..Cores-1 in id order (the placement loop above).
	shardOf := func(i int) int {
		if shardEngines == nil {
			return 0
		}
		return s.Net.RegionOf(i)
	}
	shardMasters := make([][]Master, len(regions))
	for i := 0; i < cfg.Cores; i++ {
		eng := e
		if shardEngines != nil {
			eng = shardEngines[shardOf(i)]
		}
		port := ports[i]
		var mon *ocp.Monitor
		if cfg.Trace {
			mon = ocp.NewMonitor(port, eng.Cycle)
			port = mon
		}
		s.Monitors = append(s.Monitors, mon)
		m := factory(s, i, port)
		s.Masters = append(s.Masters, m)
		eng.Add(m)
		if shardEngines != nil {
			shardMasters[shardOf(i)] = append(shardMasters[shardOf(i)], m)
		}
	}
	// Fabric ticks after all masters, so a request presented in cycle t is
	// arbitrated in cycle t (the amba package's timing model); in a
	// sharded build each region is its engine's fabric device.
	switch {
	case s.Bus != nil:
		e.Add(s.Bus)
	case shardEngines != nil:
		for si, rg := range regions {
			rg.BindCycleSource(shardEngines[si].Cycle)
			shardEngines[si].Add(rg)
		}
	case s.Net != nil:
		e.Add(s.Net)
	}
	// Registration runs last, once the topology is final: it captures
	// metric addresses, so per-port counter slices must not grow afterwards.
	s.Stats = sim.NewRegistry()
	for i, m := range s.Masters {
		if src, ok := m.(sim.StatsSource); ok {
			src.RegisterStats(s.Stats.Scope(fmt.Sprintf("master%d", i)))
		}
	}
	for i, mon := range s.Monitors {
		if mon != nil {
			mon.RegisterStats(s.Stats.Scope(fmt.Sprintf("port%d", i)))
		}
	}
	switch {
	case s.Bus != nil:
		s.Bus.RegisterStats(s.Stats.Scope("bus"))
	case s.Net != nil:
		s.Net.RegisterStats(s.Stats.Scope("noc"))
	}
	if shardEngines != nil {
		shards := make([]*shard.Shard, len(regions))
		for si, rg := range regions {
			rg, ms := rg, shardMasters[si]
			shards[si] = &shard.Shard{
				Engine:    shardEngines[si],
				Exchanger: rg,
				Done: func() bool {
					for _, m := range ms {
						if !m.Done() {
							return false
						}
					}
					return rg.Idle()
				},
				// Guard probes: read only by this shard's goroutine, summed
				// identically by every shard from the barrier-published slots.
				Progress: rg.Retired,
				Live:     rg.Live,
			}
		}
		s.Sharded = shard.New(shards)
		s.Engine = shardEngines[0]
	}
	return s, nil
}

// AutoMesh resolves the ×pipes geometry Build gives cores masters under c
// (when both dimensions are zero, the smallest stock mesh that fits), so
// the analytic estimator reproduces a floorplan without building it.
// Masters fill nodes from the front, slaves from the back and one spare
// node keeps them apart: the mesh needs 2·cores+3 nodes.
func AutoMesh(cores int, c noc.Config) (noc.Config, error) {
	need := cores*2 + 3
	if c.Width == 0 && c.Height == 0 {
		c.Width, c.Height = 7, 6
		for _, d := range []struct{ w, h int }{{3, 2}, {4, 2}, {4, 3}, {4, 4}, {5, 4}, {5, 5}, {6, 5}, {6, 6}} {
			if d.w*d.h >= need {
				c.Width, c.Height = d.w, d.h
				break
			}
		}
	}
	c = c.WithDefaults()
	if c.Width*c.Height < need {
		return c, fmt.Errorf("platform: mesh %dx%d too small for %d cores and %d slaves",
			c.Width, c.Height, cores, cores+2)
	}
	return c, nil
}

// Done reports whether every master has finished.
func (s *System) Done() bool {
	for _, m := range s.Masters {
		if !m.Done() {
			return false
		}
	}
	return true
}

// completionStride is the platform's one stop rule: a run or phased
// window that ends by completion (all masters done, fabric drained) stops
// on the first multiple of this many cycles — counted from the window
// start, clamped to the window end — at or after the completion cycle.
// The single engine gets there by evaluating the predicate only at those
// boundaries (sim.Engine.RunEvery, which keeps the check out of the
// per-cycle hot path); the shard runner detects completion on the exact
// cycle and runs on to the same boundary (shard.Runner). Either way the
// final engine cycle is identical.
const completionStride = 32

// Run simulates until all masters are done and the fabric has drained, or
// maxCycles elapse. It returns the makespan in cycles — the paper's
// "cumulative execution time" metric (total simulated cycles of the run),
// taken from the masters' halt cycles and so unaffected by
// completionStride.
func (s *System) Run(maxCycles uint64) (uint64, error) {
	var err error
	if s.Sharded != nil {
		err = s.Sharded.Run(maxCycles, completionStride)
	} else {
		_, err = s.Engine.RunEvery(maxCycles, completionStride, func() bool {
			return s.Done() && s.fabric.Idle()
		})
	}
	if err != nil {
		return s.Engine.Cycle(), fmt.Errorf("platform(%s): %w", s.Cfg.Interconnect, err)
	}
	// Makespan = the latest master completion, not the drain tail.
	return s.Makespan(), nil
}

// RunPhased executes the warmup → measure → drain methodology on the
// system, using the same completion predicate and completionStride as Run
// (unless p.Stride overrides it). Phase boundaries are forced wake points,
// so the three kernels land on byte-identical boundary cycles (see
// sim.Phases). Callers drive the Stats registry from the phase callbacks:
// Sync + Reset at the warmup boundary, Sync + Snapshot + Reset at each
// epoch end.
func (s *System) RunPhased(p sim.Phases, maxCycles uint64) (sim.PhasedResult, error) {
	if p.Stride == 0 {
		p.Stride = completionStride
	}
	var res sim.PhasedResult
	var err error
	if s.Sharded != nil {
		res, err = s.Sharded.RunPhased(p, maxCycles)
	} else {
		res, err = s.Engine.RunPhased(p, maxCycles, func() bool {
			return s.Done() && s.fabric.Idle()
		})
	}
	if err != nil {
		return res, fmt.Errorf("platform(%s): %w", s.Cfg.Interconnect, err)
	}
	return res, nil
}

// Makespan returns the latest master completion cycle (the paper's
// "cumulative execution time"), falling back to the engine cycle when no
// master exposes a halt cycle.
func (s *System) Makespan() uint64 {
	var last uint64
	for _, m := range s.Masters {
		if h, ok := m.(interface{ HaltCycle() uint64 }); ok {
			if c := h.HaltCycle(); c > last {
				last = c
			}
		}
	}
	if last == 0 {
		last = s.Engine.Cycle()
	}
	return last
}

// EngineSnapshot captures the run's engine state for result artifacts. On
// a sharded platform the per-engine device count depends on the partition
// (each engine holds its own region and masters), so the snapshot reports
// the canonical masters+fabric count instead — the same value a
// single-engine build registers — keeping artifacts byte-identical across
// shard counts.
func (s *System) EngineSnapshot() sim.Snapshot {
	snap := s.Engine.Snapshot()
	if s.Sharded != nil {
		snap.Devices = len(s.Masters) + 1
	}
	return snap
}

// Peek reads a word from whichever memory maps addr (test/validation hook).
func (s *System) Peek(addr uint32) uint32 {
	if layout.SharedRange().Contains(addr) {
		return s.Shared.PeekWord(addr)
	}
	for i, p := range s.Privs {
		if layout.PrivRange(i).Contains(addr) {
			return p.PeekWord(addr)
		}
	}
	panic(fmt.Sprintf("platform: Peek(%#08x) outside all memories", addr))
}

// armMaster adapts cpu.Core to the Master interface.
type armMaster struct{ *cpu.Core }

func (a *armMaster) Done() bool { return a.Halted() }

// BuildARM builds an ARM platform running one assembled program per core:
// core i runs programs[i] (loaded into its private memory) behind I/D
// caches of the given configuration.
func BuildARM(cfg Config, programs []*cpu.Program, icache, dcache cache.Config) (*System, error) {
	if len(programs) != cfg.Cores {
		return nil, fmt.Errorf("platform: %d programs for %d cores", len(programs), cfg.Cores)
	}
	return Build(cfg, func(s *System, id int, port ocp.MasterPort) Master {
		prog := programs[id]
		s.Privs[id].LoadWords(prog.Base, prog.Words)
		mu := cache.NewMemUnit(port, cache.New(icache), cache.New(dcache),
			[]ocp.AddrRange{layout.PrivRange(id)})
		return &armMaster{Core: cpu.NewCore(id, mu, prog.Entry)}
	})
}
