package exp

import (
	"fmt"

	"noctg/internal/core"
	"noctg/internal/prog"
)

// Fig2aResult is the Figure 2(a) transaction-semantics experiment: on the
// same platform, a program of N dependent blocking reads must take longer
// than one of N posted writes, because a write releases the processor as
// soon as the interconnect accepts it while a read stalls for the response.
type Fig2aResult struct {
	WriteCycles uint64
	ReadCycles  uint64
}

// Fig2a measures the posted-write vs blocking-read makespans of Figure 2(a).
func Fig2a(opt Options) (*Fig2aResult, error) {
	run := func(name, body string) (uint64, error) {
		spec := &prog.Spec{
			Name:  name,
			Cores: 1,
			Source: `
	ldi r1, 0x08000000
	ldi r2, 42
` + body + `
	halt`,
			MaxCycles: 100_000,
		}
		ref, err := RunReference(spec, opt, false)
		if err != nil {
			return 0, err
		}
		return ref.Makespan, nil
	}
	writes, err := run("fig2a-wr", `
	str r2, [r1+0]
	str r2, [r1+4]
	str r2, [r1+8]
	str r2, [r1+12]`)
	if err != nil {
		return nil, fmt.Errorf("exp: fig2a writes: %w", err)
	}
	reads, err := run("fig2a-rd", `
	ldr r3, [r1+0]
	ldr r3, [r1+4]
	ldr r3, [r1+8]
	ldr r3, [r1+12]`)
	if err != nil {
		return nil, fmt.Errorf("exp: fig2a reads: %w", err)
	}
	return &Fig2aResult{WriteCycles: writes, ReadCycles: reads}, nil
}

// Fig2bResult is the Figure 2(b) reactivity experiment: two-master
// semaphore contention replayed by reactive TGs on the traced fabric and on
// a slower one. On the slower fabric critical sections are held longer, so
// the reactive TGs must regenerate more failed polls — behaviour a
// non-reactive replay cannot produce.
type Fig2bResult struct {
	Bench string
	Cores int
	// SameMakespan / SameFailedPolls come from the traced fabric.
	SameMakespan    uint64
	SameFailedPolls uint64
	// SlowMakespan / SlowFailedPolls come from the slowed fabric.
	SlowMakespan    uint64
	SlowFailedPolls uint64
}

// Reactive reports whether the slower fabric both lengthened the run and
// grew the regenerated poll count.
func (r *Fig2bResult) Reactive() bool {
	return r.SlowMakespan > r.SameMakespan && r.SlowFailedPolls > r.SameFailedPolls
}

// Fig2b traces spec once, then replays the translated TGs on the traced
// fabric and on one with much slower slaves (12 wait states), reporting
// makespans and semaphore poll failures.
func Fig2b(spec *prog.Spec, opt Options) (*Fig2bResult, error) {
	ref, err := RunReference(spec, opt, true)
	if err != nil {
		return nil, err
	}
	progs, _, _, err := TranslateAll(spec, ref.Traces,
		core.DefaultTranslateConfig(PollRangesFor(spec)))
	if err != nil {
		return nil, err
	}
	same, err := RunTG(spec, progs, opt)
	if err != nil {
		return nil, err
	}
	_, sameFails, _ := same.Sys.Sems.Stats()
	slow := opt
	slow.Platform.MemWaitStates = 12
	slowRes, err := RunTG(spec, progs, slow)
	if err != nil {
		return nil, err
	}
	_, slowFails, _ := slowRes.Sys.Sems.Stats()
	return &Fig2bResult{
		Bench:           spec.Name,
		Cores:           spec.Cores,
		SameMakespan:    same.Makespan,
		SameFailedPolls: sameFails,
		SlowMakespan:    slowRes.Makespan,
		SlowFailedPolls: slowFails,
	}, nil
}
