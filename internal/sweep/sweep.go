// Package sweep is the parallel experiment-sweep runner: it fans a
// parameter grid (mesh dimensions, buffer depth, traffic workload, clock
// period, seed) out over a bounded worker pool, builds one independent
// sim.Engine per grid point, and collects per-run latency / throughput /
// flit metrics into JSON and CSV artifacts with stable ordering.
//
// Determinism is the package's contract: the simulation kernel is
// single-goroutine per engine and every grid point is self-contained, so
// the result set is byte-identical no matter how many workers execute it —
// a property the test suite verifies. The paper's whole value proposition
// is cheap design-space sweeps; this package is the substrate that turns
// the repository's one-engine-at-a-time harness into "all configurations,
// all cores, one invocation".
//
// # TG result sharing
//
// A TG workload is traced and translated once per campaign, and its
// read-only programs serve every point that replays them, on every fabric:
// the paper's trace-once, replay-many flow. A TG replay is also
// deterministic, so its result depends on program × fabric × clock ×
// measurement plan and never on the seed. A TG configuration therefore
// simulates once per campaign: the first point of a seed-free
// configuration simulates, and every later one copies its successful
// result under its own ID and seed. A failure is never shared; each seed
// that meets one simulates, retries and reports it on its own. Adding
// seeds to a TG-heavy grid thus costs almost nothing, and the artifacts
// are the bytes every point would have computed alone.
package sweep

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// ErrDrained marks a task that was never started because the pool was
// asked to drain (SIGINT/SIGTERM): in-flight tasks finished, this one did
// not begin. Journaled runs leave drained points incomplete for the next
// resume.
var ErrDrained = errors.New("sweep: drained before start")

// Run executes tasks over a worker pool of the given size and returns each
// task's error at the task's own index. Output position never depends on
// worker count or goroutine scheduling — each task writes only its own
// slot — which is what lets callers guarantee identical artifacts across
// -workers settings. workers <= 0 means GOMAXPROCS. A panicking task is
// converted into an error rather than taking the whole sweep down.
func Run(workers int, tasks []func() error) []error {
	return RunDrained(workers, tasks, nil)
}

// RunDrained is Run with a graceful-drain hook: interrupted (when
// non-nil) is polled before each task starts, and once it reports true
// the remaining tasks are marked ErrDrained instead of running. Tasks
// already started always finish — a drain never tears a task mid-run.
func RunDrained(workers int, tasks []func() error, interrupted func() bool) []error {
	errs := make([]error, len(tasks))
	if len(tasks) == 0 {
		return errs
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				if interrupted != nil && interrupted() {
					errs[i] = ErrDrained
					continue
				}
				errs[i] = protect(tasks[i])
			}
		}()
	}
	for i := range tasks {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return errs
}

// protect runs f, converting a panic into an error.
func protect(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sweep: task panic: %v", r)
		}
	}()
	return f()
}

// Map fans fn over items on a worker pool and returns the results in item
// order. The first argument of fn is the item's index. It returns a joined
// error of every failed item; successful items keep their results either
// way.
func Map[T, R any](workers int, items []T, fn func(int, T) (R, error)) ([]R, error) {
	out := make([]R, len(items))
	tasks := make([]func() error, len(items))
	for i := range items {
		i := i
		tasks[i] = func() error {
			r, err := fn(i, items[i])
			if err != nil {
				return fmt.Errorf("item %d: %w", i, err)
			}
			out[i] = r
			return nil
		}
	}
	return out, errors.Join(Run(workers, tasks)...)
}
