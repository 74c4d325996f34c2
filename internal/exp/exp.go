// Package exp is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (Section 6) on the Go platform —
// Table 2 (accuracy and speedup per benchmark and core count), the
// cross-interconnect .tgp equality check, the trace-collection overhead
// measurement, and the baseline/design ablations. cmd/tgrepro prints the
// outputs in the paper's layout (tgrepro -all).
package exp

import (
	"bytes"
	"fmt"
	"time"

	"noctg/internal/cache"
	"noctg/internal/core"
	"noctg/internal/guard"
	"noctg/internal/layout"
	"noctg/internal/ocp"
	"noctg/internal/platform"
	"noctg/internal/prog"
	"noctg/internal/trace"
)

// Options selects the platform variant under test.
type Options struct {
	// Platform is the interconnect/bus/NoC configuration. Cores is filled
	// from the spec.
	Platform platform.Config
	// ICache and DCache configure the processor caches.
	ICache, DCache cache.Config
	// Guard arms the guard watchdogs (see internal/guard) on every
	// platform the harness builds. The zero value disables them; fault-free
	// guarded runs are byte-identical to unguarded ones, and a violation
	// surfaces as a typed *guard.Violation error from the run.
	Guard guard.Config
	// Interrupted, when set, is polled by the paper harness before each
	// experiment task starts; once true, unstarted tasks are skipped (a
	// SIGINT/SIGTERM graceful drain) while in-flight ones finish.
	Interrupted func() bool
}

// DefaultOptions returns the reference AMBA platform configuration.
func DefaultOptions() Options {
	return Options{
		ICache: cache.Config{Lines: 64, WordsPerLine: 4},
		DCache: cache.Config{Lines: 64, WordsPerLine: 4},
	}
}

// RefResult is the outcome of a reference (ARM) simulation.
type RefResult struct {
	Sys      *platform.System
	Makespan uint64
	Wall     time.Duration
	Traces   []*trace.Trace
}

// RunReference executes the spec on bit/cycle-true miniARM cores. With
// traced set, an OCP monitor on every master port records a trace (the
// paper's reference simulation): this is the one run whose product is the
// event log, so it is the one place that switches Monitor.Record on —
// every other platform built with Config.Trace only meters. Untraced, the
// ports carry no monitor at all.
func RunReference(spec *prog.Spec, opt Options, traced bool) (*RefResult, error) {
	progs, err := spec.Assemble()
	if err != nil {
		return nil, err
	}
	cfg := opt.Platform
	cfg.Cores = spec.Cores
	cfg.Trace = traced
	sys, err := platform.BuildARM(cfg, progs, opt.ICache, opt.DCache)
	if err != nil {
		return nil, err
	}
	sys.EnableGuard(opt.Guard)
	if traced {
		for _, mon := range sys.Monitors {
			mon.Record()
		}
	}
	start := time.Now()
	makespan, err := sys.Run(spec.MaxCycles)
	wall := time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("exp: reference %s: %w", spec.Name, err)
	}
	if spec.Validate != nil {
		if verr := spec.Validate(sys.Peek, progs[0].Symbols); verr != nil {
			return nil, fmt.Errorf("exp: reference %s functional check: %w", spec.Name, verr)
		}
	}
	res := &RefResult{Sys: sys, Makespan: makespan, Wall: wall}
	if traced {
		for i, mon := range sys.Monitors {
			res.Traces = append(res.Traces, trace.New(i, sys.Engine.Clock(), mon.Events()))
		}
	}
	return res, nil
}

// PollRangesFor returns the translator's pollable ranges for a spec: the
// hardware semaphore bank plus the spec's registered flag words, each with
// the benchmark's known polling period.
func PollRangesFor(spec *prog.Spec) []core.PollRange {
	ranges := []core.PollRange{{Range: layout.SemRange(), Gap: prog.SemPollGap}}
	for _, w := range spec.PollWords {
		ranges = append(ranges, core.PollRange{
			Range: ocp.AddrRange{Base: w, Size: 4},
			Gap:   prog.FlagPollGap,
		})
	}
	return ranges
}

// TranslateAll converts per-master traces into TG programs. It returns the
// programs, aggregate stats, and the translation wall time (the paper's
// "parsing and elaboration" cost).
func TranslateAll(spec *prog.Spec, traces []*trace.Trace, cfg core.TranslateConfig) ([]*core.Program, core.TranslateStats, time.Duration, error) {
	var agg core.TranslateStats
	progs := make([]*core.Program, len(traces))
	start := time.Now()
	for i, tr := range traces {
		p, stats, err := core.Translate(tr, cfg)
		if err != nil {
			return nil, agg, 0, fmt.Errorf("exp: translate master %d: %w", i, err)
		}
		progs[i] = p
		agg.Events += stats.Events
		agg.PollLoops += stats.PollLoops
		agg.PollReadsCollapsed += stats.PollReadsCollapsed
		agg.ClampedCycles += stats.ClampedCycles
	}
	return progs, agg, time.Since(start), nil
}

// TGResult is the outcome of a TG-platform simulation.
type TGResult struct {
	Sys      *platform.System
	Makespan uint64
	Wall     time.Duration
}

// RunTG executes translated programs on the TG platform (Figure 1(b)).
func RunTG(spec *prog.Spec, programs []*core.Program, opt Options) (*TGResult, error) {
	cfg := opt.Platform
	cfg.Cores = spec.Cores
	sys, err := platform.BuildTG(cfg, programs)
	if err != nil {
		return nil, err
	}
	sys.EnableGuard(opt.Guard)
	start := time.Now()
	makespan, err := sys.Run(spec.MaxCycles)
	wall := time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("exp: TG %s: %w", spec.Name, err)
	}
	return &TGResult{Sys: sys, Makespan: makespan, Wall: wall}, nil
}

// FormatTGP renders all programs as concatenated canonical .tgp text (used
// for the cross-interconnect equality check).
func FormatTGP(programs []*core.Program) (string, error) {
	var buf bytes.Buffer
	for _, p := range programs {
		if err := p.Format(&buf); err != nil {
			return "", err
		}
		buf.WriteByte('\n')
	}
	return buf.String(), nil
}

// TraceBytes returns the serialised .trc size of all traces (the paper's
// "20 MB trace file" metric), summed from each trace's Size without
// rendering any text.
func TraceBytes(traces []*trace.Trace) (int, error) {
	total := 0
	for _, tr := range traces {
		n, err := tr.Size()
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}
