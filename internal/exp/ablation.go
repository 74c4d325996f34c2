package exp

import (
	"fmt"
	"math"

	"noctg/internal/amba"
	"noctg/internal/core"
	"noctg/internal/ocp"
	"noctg/internal/platform"
	"noctg/internal/prog"
)

// GeneratorKind names the traffic-generation models compared in the
// Section 3 fidelity ablation.
type GeneratorKind int

const (
	// Reactive is the paper's TG (poll loops collapsed).
	Reactive GeneratorKind = iota
	// Timeshift ties commands to previous responses but replays the
	// recorded polls verbatim.
	Timeshift
	// Cloning replays absolute timestamps.
	Cloning
)

func (k GeneratorKind) String() string {
	switch k {
	case Reactive:
		return "reactive"
	case Timeshift:
		return "timeshift"
	case Cloning:
		return "cloning"
	}
	return fmt.Sprintf("GeneratorKind(%d)", int(k))
}

// FidelityRow reports how well one generator model, built from traces
// collected on the *source* interconnect, predicts the application's
// makespan on a *different* target interconnect. Ground truth is the real
// ARM platform on the target.
type FidelityRow struct {
	Kind        GeneratorKind
	Makespan    uint64
	GroundTruth uint64
	ErrorPct    float64
	// Completed is false when the generator could not finish (e.g. a
	// cloning replay deadlocking against a semaphore).
	Completed bool
}

// AblationGenerators traces spec on the source fabric, then replays it on
// the target fabric with each generator model, comparing against the ARM
// ground truth on the target. It quantifies the paper's claim that
// reactivity is required once the interconnect changes.
func AblationGenerators(spec *prog.Spec, source, target Options) ([]*FidelityRow, error) {
	// Ground truth: the real cores on the target interconnect.
	truth, err := RunReference(spec, target, false)
	if err != nil {
		return nil, fmt.Errorf("exp: ablation ground truth: %w", err)
	}
	// Traces from the source interconnect.
	ref, err := RunReference(spec, source, true)
	if err != nil {
		return nil, fmt.Errorf("exp: ablation reference: %w", err)
	}

	pollRanges := PollRangesFor(spec)
	rows := make([]*FidelityRow, 0, 3)
	addRow := func(kind GeneratorKind, makespan uint64, completed bool) {
		row := &FidelityRow{Kind: kind, Makespan: makespan, GroundTruth: truth.Makespan, Completed: completed}
		if completed {
			row.ErrorPct = 100 * math.Abs(float64(makespan)-float64(truth.Makespan)) / float64(truth.Makespan)
		}
		rows = append(rows, row)
	}

	// Reactive and timeshift share the translation pipeline.
	for _, kind := range []GeneratorKind{Reactive, Timeshift} {
		cfg := core.DefaultTranslateConfig(pollRanges)
		cfg.RecognizePolls = kind == Reactive
		progs, _, _, err := TranslateAll(spec, ref.Traces, cfg)
		if err != nil {
			return nil, err
		}
		res, err := RunTG(spec, progs, target)
		if err != nil {
			// A non-reactive generator may deadlock on the new fabric —
			// that is a result, not a harness failure.
			addRow(kind, 0, false)
			continue
		}
		addRow(kind, res.Makespan, true)
	}

	// Cloning replays raw events.
	logs := make([]ocp.Log, len(ref.Traces))
	for i, tr := range ref.Traces {
		logs[i] = tr.Log
	}
	cfg := target.Platform
	cfg.Cores = spec.Cores
	sys, err := platform.BuildClone(cfg, logs)
	if err != nil {
		return nil, err
	}
	makespan, err := sys.Run(spec.MaxCycles)
	if err != nil {
		addRow(Cloning, 0, false)
	} else {
		addRow(Cloning, makespan, true)
	}
	return rows, nil
}

// ArbitrationRow is one arbitration-policy ablation entry.
type ArbitrationRow struct {
	Policy   string
	Makespan uint64
	MaxWait  uint64 // worst per-master arbitration wait (starvation metric)
}

// AblationArbitration compares bus arbitration policies on a contended
// benchmark: the arbiter is a design choice of MPARM's AHB bus, whose
// round-robin policy is amba.DefaultConfig's.
func AblationArbitration(spec *prog.Spec, opt Options, policies []amba.Policy) ([]*ArbitrationRow, error) {
	var rows []*ArbitrationRow
	for _, p := range policies {
		o := opt
		o.Platform.Bus.Arbitration = p
		ref, err := RunReference(spec, o, false)
		if err != nil {
			return nil, err
		}
		var maxWait uint64
		for _, w := range ref.Sys.Bus.WaitCycles() {
			if w > maxWait {
				maxWait = w
			}
		}
		rows = append(rows, &ArbitrationRow{
			Policy:   p.String(),
			Makespan: ref.Makespan,
			MaxWait:  maxWait,
		})
	}
	return rows, nil
}
