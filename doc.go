// Package noctg is a Go reproduction of "A Network Traffic Generator Model
// for Fast Network-on-Chip Simulation" (Mahadevan, Angiolini, Storgaard,
// Olsen, Sparsø, Madsen — DATE 2005): a complete MPARM-like cycle-true
// MPSoC simulation platform, and on top of it the paper's reactive Traffic
// Generator (TG) flow that replaces bit- and cycle-true IP cores with tiny
// trace-programmed processors for faster interconnect design-space
// exploration at cycle accuracy.
//
// The flow, end to end:
//
//	bench := noctg.MPMatrix(4, 16)                     // an SPMD workload
//	ref, _ := noctg.RunReference(bench, opt, true)     // cycle-true ARM run, traced
//	progs, _, _, _ := noctg.TranslateAll(bench, ref.Traces,
//	        noctg.DefaultTranslateConfig(noctg.PollRangesFor(bench)))
//	tg, _ := noctg.RunTG(bench, progs, opt)            // TGs replace the cores
//	// tg.Makespan ≈ ref.Makespan, tg.Wall ≪ ref.Wall
//
// Design-space sweeps run the same flow in parallel: a SweepGrid
// (workloads × fabrics × clock periods × seeds) expands into independent
// configurations, each simulated on its own engine by a bounded worker
// pool, with JSON/CSV artifacts that are byte-identical for any worker
// count:
//
//	grid := noctg.SweepGrid{Workloads: …, Fabrics: …, Seeds: …}
//	results, _ := noctg.SweepRunner{Workers: 8}.Run(grid.Expand())
//	noctg.WriteSweepCSV(os.Stdout, results)
//
// This package is a thin facade: exactly the names the programs under
// examples/ import, which TestFacadeIsWhatExamplesUse enforces. The model
// lives in the packages under internal/, and each states its own
// contracts in its package doc; read them with go doc, for example
// "go doc noctg/internal/sim".
//
// # Where each contract lives
//
//   - sim: the cycle-driven engine and its two kernels (strict, the
//     oracle, and event, production), the Sleeper promise every device
//     makes, wake handles, the stats registry and phased measurement
//     windows.
//   - ocp: the socket between masters and fabrics, and the wake rule by
//     which a fabric port wakes the master blocked on it.
//   - noc: the ×pipes-style mesh and torus, and its one flow-control rule,
//     which makes every partition of a fabric compute the same bytes.
//   - sweep: grids, the parallel runner, phased measurement of points,
//     load-latency curves, the analytic pre-pass, and TG result sharing
//     across seeds.
//   - journal: the write-ahead campaign journal and the crash contract —
//     torn tails, group commit, byte-identical resume.
//   - simtest: the artifact contract (every stored golden, digest and
//     pin, and the one switch that regenerates them) and the table of
//     execution axes every differential runs over.
//   - cliflags: the flag table of every CLI, which refuses by name any
//     flag the selected mode never reads.
//
// # The other packages
//
//   - amba: the AMBA AHB-style shared bus.
//   - mem, cache, cpu: memories and hardware semaphores, caches, and the
//     miniARM instruction-set simulator with its assembler.
//   - prog: the paper's Table 2 benchmarks.
//   - trace, core: the .trc trace format; the TG instruction set,
//     translator and TG devices.
//   - stochastic: open-loop baseline masters, drawn traffic models
//     (spatial patterns, MMPP and self-similar arrival processes) and the
//     cloning replay.
//   - valid: the generator-validation harness (tgsweep -validate).
//   - analytic: the closed-form queueing estimator behind the adaptive
//     curves and the grid pre-pass.
//   - platform, layout, shard: Figure 1 platform assembly and its address
//     map; one ×pipes simulation split across engine goroutines, a pure
//     execution knob.
//   - guard: watchdogs that turn hangs and conservation bugs into typed
//     violations.
//   - scenario: declarative traffic-scenario specs and the stock library.
//   - exp: the experiment harness (Table 2, Figure 2, ablations).
//   - drain: the SIGINT/SIGTERM graceful drain of the CLIs.
//
// The commands under cmd/ (tgsweep, tgrepro, tgc, nocsim) wrap these
// packages; README.md says how to run each one.
package noctg
