package sim

import (
	"errors"
	"fmt"
)

// Phase identifies one window of the phased measurement methodology: a
// warmup window whose statistics are discarded (cold caches, empty
// interconnect pipelines), one or more measurement epochs whose statistics
// are the run's result, and a drain window that lets in-flight work finish
// without polluting the measured epochs.
type Phase int

const (
	// PhaseWarmup is the discarded lead-in window.
	PhaseWarmup Phase = iota
	// PhaseMeasure is the measured steady-state window (one or more epochs).
	PhaseMeasure
	// PhaseDrain is the post-measurement completion window.
	PhaseDrain
)

func (p Phase) String() string {
	switch p {
	case PhaseWarmup:
		return "warmup"
	case PhaseMeasure:
		return "measure"
	case PhaseDrain:
		return "drain"
	}
	return fmt.Sprintf("Phase(%d)", int(p))
}

// Phases configures a phased run. The zero value (no warmup, one epoch
// spanning the whole budget, no drain) makes RunPhased behave exactly like
// RunEvery — the compatibility anchor the sweep property tests pin.
//
// Phase boundaries are forced wake points: each window is executed as its
// own bounded kernel run, and the skip and event kernels clamp their cycle
// jumps at the window end exactly as they clamp at a cycle budget. All
// three kernels therefore land on byte-identical boundary cycles, and a
// boundary callback observes identical device state regardless of kernel —
// the property the sweep's phased differential tests assert.
type Phases struct {
	// Warmup is the warmup window length in cycles (0 = none).
	Warmup uint64
	// Epoch is the measurement epoch length in cycles. 0 means a single
	// open epoch running to workload completion (or the cycle budget).
	Epoch uint64
	// MaxEpochs caps the number of measurement epochs. 0 with Epoch > 0
	// means unbounded (the budget or the AfterEpoch callback stops the
	// run); 0 with Epoch == 0 means exactly one open epoch.
	MaxEpochs int
	// Drain is the maximum post-measurement completion window (0 = none).
	// The drain runs only when the workload did not already complete.
	Drain uint64
	// Stride is the completion-predicate evaluation stride (default 1),
	// forwarded to the underlying RunEvery windows.
	Stride uint64

	// AfterWarmup is called once at the warmup/measure boundary (also when
	// Warmup is 0). Measurement code uses it to settle and reset the stats
	// registry so warmup traffic never pollutes epoch statistics.
	AfterWarmup func(now uint64)
	// AfterEpoch is called at the end of every measurement epoch with the
	// epoch index and the epoch's [start, end) cycle window. Returning
	// false stops measurement after this epoch (adaptive stopping); the
	// callback runs even for the final, possibly partial, epoch in which
	// the workload completed.
	AfterEpoch func(epoch int, start, end uint64) bool
}

// PhasedResult reports how a phased run unfolded, in simulated state only.
type PhasedResult struct {
	// WarmupCycles, MeasureCycles and DrainCycles are the executed window
	// lengths.
	WarmupCycles  uint64
	MeasureCycles uint64
	DrainCycles   uint64
	// Epochs is the number of measurement epochs executed.
	Epochs int
	// Completed reports whether the completion predicate became true.
	Completed bool
	// CompletedIn is the phase in which the predicate fired (valid only
	// when Completed).
	CompletedIn Phase
}

// Run executes the warmup → measure → drain methodology over any runner
// that can execute one bounded window: a warmup window, then measurement
// epochs until the epoch cap, the AfterEpoch callback, the workload or the
// cycle budget stops them, then — if the workload has not completed — a
// bounded drain window. It is the one copy of the sequencing; the single
// engine (Engine.RunPhased) and the shard runner (shard.Runner.RunPhased)
// each supply their window and nothing else, so the two execute the same
// plan and report the same errors.
//
// window runs at most cycles cycles from the current cycle, checking for
// completion every stride cycles, and returns the executed count, whether
// the workload completed, and any failure other than running out of window
// (a watchdog violation), which stops the plan at once. now reads the
// current cycle.
//
// maxCycles budgets warmup plus measurement; Drain has its own budget. The
// returned error wraps ErrMaxCycles only when the budget truncated the
// measurement plan: an open-loop run that measures its full epoch plan
// without the workload ever completing returns nil (Completed reports the
// difference). A drain window that ends without completion is likewise not
// an error.
func (p Phases) Run(maxCycles uint64, now func() uint64, window func(cycles, stride uint64) (n uint64, done bool, err error)) (PhasedResult, error) {
	var res PhasedResult
	stride := max(p.Stride, 1)
	remaining := maxCycles

	if p.Warmup > 0 {
		win := min(p.Warmup, remaining)
		n, done, err := window(win, stride)
		res.WarmupCycles = n
		remaining -= n
		if err != nil {
			return res, err
		}
		if done {
			res.Completed = true
			res.CompletedIn = PhaseWarmup
		} else if win < p.Warmup {
			// The budget truncated the warmup window itself.
			return res, fmt.Errorf("sim: phased warmup truncated: %w (%d cycles)", ErrMaxCycles, maxCycles)
		}
	}
	if p.AfterWarmup != nil {
		p.AfterWarmup(now())
	}
	if res.Completed {
		return res, nil
	}

	maxEpochs := p.MaxEpochs
	if maxEpochs <= 0 && p.Epoch == 0 {
		maxEpochs = 1
	}
	truncated := func() error {
		return fmt.Errorf("sim: phased measurement truncated after %d epochs: %w (%d cycles)",
			res.Epochs, ErrMaxCycles, maxCycles)
	}
	for epoch := 0; maxEpochs <= 0 || epoch < maxEpochs; epoch++ {
		if remaining == 0 {
			return res, truncated()
		}
		win := remaining
		if p.Epoch > 0 && p.Epoch < win {
			win = p.Epoch
		}
		start := now()
		n, done, err := window(win, stride)
		remaining -= n
		res.MeasureCycles += n
		res.Epochs++
		if err != nil {
			return res, err
		}
		more := true
		if p.AfterEpoch != nil {
			more = p.AfterEpoch(epoch, start, now())
		}
		if done {
			res.Completed = true
			res.CompletedIn = PhaseMeasure
			return res, nil
		}
		if !more {
			break
		}
		if p.Epoch == 0 || win < p.Epoch {
			// An exhausted open epoch (a window only ends early on
			// completion), or an epoch the budget cut short with more
			// epochs wanted: the measurement plan was truncated.
			return res, truncated()
		}
	}

	if p.Drain > 0 {
		n, done, err := window(p.Drain, stride)
		res.DrainCycles = n
		if err != nil {
			return res, err
		}
		if done {
			res.Completed = true
			res.CompletedIn = PhaseDrain
		}
	}
	return res, nil
}

// RunPhased executes the plan (see Phases.Run) on this engine: a window is
// one bounded run of the selected kernel.
func (e *Engine) RunPhased(p Phases, maxCycles uint64, done func() bool) (PhasedResult, error) {
	if done == nil {
		return PhasedResult{}, fmt.Errorf("sim: RunPhased requires a completion predicate")
	}
	return p.Run(maxCycles, e.Cycle, func(cycles, stride uint64) (uint64, bool, error) {
		n, err := e.run(cycles, stride, done)
		if errors.Is(err, ErrMaxCycles) {
			// Running out of window is the plan's business, not a failure.
			return n, false, nil
		}
		return n, err == nil, err
	})
}
