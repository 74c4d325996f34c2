package noctg

import (
	"io"

	"noctg/internal/core"
	"noctg/internal/exp"
	"noctg/internal/layout"
	"noctg/internal/ocp"
	"noctg/internal/platform"
	"noctg/internal/prog"
	"noctg/internal/scenario"
	"noctg/internal/stochastic"
	"noctg/internal/sweep"
	"noctg/internal/trace"
)

// The facade is exactly what the programs under examples/ (and the
// end-to-end test beside this file) import: TestFacadeIsWhatExamplesUse
// fails on any name here that none of them selects. Everything else is
// reached through the internal packages by the cmd/ mains.

// OCP and platform types (Figure 1).
type (
	// AddrRange is a half-open byte-address range.
	AddrRange = ocp.AddrRange
	// MasterPort is the master-side OCP connection point.
	MasterPort = ocp.MasterPort
	// PlatformConfig describes a platform instance.
	PlatformConfig = platform.Config
	// System is an assembled platform.
	System = platform.System
	// Master is any device that drives an OCP master port to completion.
	Master = platform.Master
)

// XPipes is the packet-switched mesh NoC (the zero Interconnect is the
// AMBA shared bus).
const XPipes = platform.XPipes

// TG types (the paper's contribution).
type (
	// TGProgram is a traffic-generator program (.tgp / .bin content).
	TGProgram = core.Program
	// TGDevice is the cycle-true TG processor model.
	TGDevice = core.Device
	// MultiTaskTG schedules several TG programs on one port (§7).
	MultiTaskTG = core.MultiTask
	// MultiTaskConfig parameterises the multitasking scheduler.
	MultiTaskConfig = core.MultiTaskConfig
)

// Statistical baseline generators (Lahiri et al. [6]).
type (
	// StochasticConfig describes a statistical baseline generator.
	StochasticConfig = stochastic.Config
	// Dist selects a stochastic inter-arrival distribution.
	Dist = stochastic.Dist
)

// Benchmarks (the paper's Table 2 workloads).
var (
	// MPMatrix builds the shared-memory multiprocessor matrix benchmark.
	MPMatrix = prog.MPMatrix
	// DES builds the table-driven Feistel encryption benchmark.
	DES = prog.DES
)

// The TG flow (Sections 4–5).
var (
	// DefaultTranslateConfig returns the reactive translation setup.
	DefaultTranslateConfig = core.DefaultTranslateConfig
	// AssembleTGP parses .tgp text into a program.
	AssembleTGP = core.Assemble
	// ReadBin parses a .bin TG image.
	ReadBin = core.ReadBin
	// NewMultiTaskTG builds a multitasking TG master.
	NewMultiTaskTG = core.NewMultiTask
	// ParseTrace reads a .trc stream.
	ParseTrace = trace.Parse
)

// WriteTGP renders a TG program as canonical .tgp text.
func WriteTGP(p *TGProgram, w io.Writer) error { return p.Format(w) }

// Platform assembly (Figure 1).
var (
	// BuildTG assembles a platform of TG devices (Figure 1(b)).
	BuildTG = platform.BuildTG
	// Build assembles a platform with a custom master factory.
	Build = platform.Build
	// NewStochastic builds a statistical baseline master.
	NewStochastic = stochastic.New
	// SharedRange returns the shared memory range of the MPARM-like map.
	SharedRange = layout.SharedRange
)

// Options selects the platform variant for experiments.
type Options = exp.Options

// Experiment harness (Section 6).
var (
	// DefaultOptions returns the reference AMBA platform options.
	DefaultOptions = exp.DefaultOptions
	// RunReference executes a benchmark on cycle-true cores.
	RunReference = exp.RunReference
	// TranslateAll converts per-master traces into TG programs.
	TranslateAll = exp.TranslateAll
	// RunTG executes translated programs on the TG platform.
	RunTG = exp.RunTG
	// PollRangesFor returns a benchmark's pollable ranges.
	PollRangesFor = exp.PollRangesFor
)

// Parallel sweep types (the design-space exploration runner).
type (
	// SweepGrid is a workloads × fabrics × clocks × seeds parameter grid.
	SweepGrid = sweep.Grid
	// SweepWorkload names one traffic source of a grid.
	SweepWorkload = sweep.Workload
	// SweepFabric names one interconnect configuration of a grid.
	SweepFabric = sweep.Fabric
	// SweepRunner executes grid points over a bounded worker pool.
	SweepRunner = sweep.Runner
	// ScenarioSpec is one declarative traffic scenario: fabric, topology,
	// logical core grid, spatial pattern, injection distribution and the
	// load/clock/seed axes.
	ScenarioSpec = scenario.Spec
)

// Parallel sweep entry points.
var (
	// ScenarioPoints compiles scenarios into runnable sweep points.
	ScenarioPoints = scenario.Points
	// WriteSweepCSV renders sweep results as deterministic CSV.
	WriteSweepCSV = sweep.WriteCSV
)
