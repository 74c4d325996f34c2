package sweep

import (
	"fmt"
	"time"
)

// MaxRetryAttempts bounds a retry policy's attempt count: a point that
// fails transiently eight times in a row is not going to pass on the
// ninth, and an unbounded policy could stall a campaign on one point.
const MaxRetryAttempts = 8

// maxRetryBackoffMS bounds the base backoff (one minute); the exponential
// growth across attempts is bounded by MaxRetryAttempts.
const maxRetryBackoffMS = 60_000

// maxPointDeadlineMS bounds the per-point wall-clock deadline (one hour).
const maxPointDeadlineMS = 3_600_000

// RetryPolicy governs how the runner treats a failing point. Only
// transiently classified failures — wall-clock budget, barrier stall,
// recovered worker panic (guard.Kind.Transient) — are retried; failures
// that are deterministic properties of the configuration (deadlock, flit
// conservation, build errors) are quarantined as failed Results on the
// first attempt so the grid keeps draining.
//
// The policy is execution-only: it never changes what a passing point
// computes, so artifacts stay byte-identical with or without one.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per point, first run
	// included. 0 and 1 both mean no retries.
	MaxAttempts int `json:"max_attempts,omitempty"`
	// BackoffMS is the base delay before the second attempt; each further
	// attempt doubles it (exponential backoff).
	BackoffMS int `json:"backoff_ms,omitempty"`
	// DeadlineMS bounds one attempt's wall-clock time, threaded through
	// guard.Config.RunBudget (arming a budget-only guard when the runner
	// has none). A blown deadline is a transient failure. 0 disables.
	DeadlineMS int `json:"deadline_ms,omitempty"`
}

// Validate bounds the policy.
func (p *RetryPolicy) Validate() error {
	if p == nil {
		return nil
	}
	if p.MaxAttempts < 0 || p.MaxAttempts > MaxRetryAttempts {
		return fmt.Errorf("sweep: retry max_attempts %d out of range [0,%d]", p.MaxAttempts, MaxRetryAttempts)
	}
	if p.BackoffMS < 0 || p.BackoffMS > maxRetryBackoffMS {
		return fmt.Errorf("sweep: retry backoff_ms %d out of range [0,%d]", p.BackoffMS, maxRetryBackoffMS)
	}
	if p.DeadlineMS < 0 || p.DeadlineMS > maxPointDeadlineMS {
		return fmt.Errorf("sweep: retry deadline_ms %d out of range [0,%d]", p.DeadlineMS, maxPointDeadlineMS)
	}
	return nil
}

// attempts returns the effective attempt count (at least one).
func (p *RetryPolicy) attempts() int {
	if p == nil || p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// deadline returns the per-attempt wall-clock bound (0 disables).
func (p *RetryPolicy) deadline() time.Duration {
	if p == nil {
		return 0
	}
	return time.Duration(p.DeadlineMS) * time.Millisecond
}

// backoff returns the sleep before retry attempt a (a >= 2), doubling
// per attempt from the configured base.
func (p *RetryPolicy) backoff(a int) time.Duration {
	if p == nil || p.BackoffMS <= 0 {
		return 0
	}
	d := time.Duration(p.BackoffMS) * time.Millisecond
	for i := 2; i < a; i++ {
		d *= 2
	}
	return d
}

// transientFailure reports whether a failed result is worth retrying:
// only failures carrying a transiently classified guard violation
// qualify. Failures with no violation at all (build or config errors)
// are deterministic.
func transientFailure(res Result) bool {
	return res.Violation != nil && res.Violation.Kind.Transient()
}

// runPointRetry drives one point through the retry policy. prior is the
// number of attempts already journaled for the point (0 on a fresh run),
// so attempt numbering continues across a resume. onAttempt, when set, is
// invoked before each attempt with its number (the journal's start
// record); an error from it aborts the run. It returns the final result
// and the last attempt number.
func (r Runner) runPointRetry(cache *programCache, p Point, trace bool, prior int, onAttempt func(int) error) (Result, int, error) {
	policy := r.Retry
	first := prior + 1
	last := policy.attempts()
	if last < first {
		// A resume past the policy's budget still owes the in-flight
		// attempt one completion.
		last = first
	}
	var res Result
	for a := first; ; a++ {
		if onAttempt != nil {
			if err := onAttempt(a); err != nil {
				return res, a, err
			}
		}
		res = r.runPointExec(cache, p, execOpts{
			trace:    trace,
			attempt:  a,
			fallback: a == last && last > 1,
			deadline: policy.deadline(),
		})
		if res.Err == "" || a >= last || !transientFailure(res) {
			return res, a, nil
		}
		if d := policy.backoff(a + 1); d > 0 {
			time.Sleep(d)
		}
	}
}
