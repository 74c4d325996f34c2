package sweep

import (
	"fmt"
	"time"
)

// maxRetryAttempts bounds a retry policy's attempt count: a point that
// fails transiently eight times in a row is not going to pass on the
// ninth, and an unbounded policy could stall a campaign on one point.
const maxRetryAttempts = 8

// maxRetryBackoffMS bounds the base backoff (one minute); the exponential
// growth across attempts is bounded by maxRetryAttempts.
const maxRetryBackoffMS = 60_000

// RetryPolicy governs how the runner treats a failing point. Only
// transiently classified failures — wall-clock budget, barrier stall,
// recovered worker panic (guard.Kind.Transient) — are retried; failures
// that are deterministic properties of the configuration (deadlock, flit
// conservation, build errors) are quarantined as failed Results on the
// first attempt so the grid keeps draining.
//
// The policy is execution-only: it never changes what a passing point
// computes, so artifacts stay byte-identical with or without one. The
// per-attempt wall-clock bound is the guard's RunBudget (Runner.Guard).
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per point, first run
	// included. 0 and 1 both mean no retries.
	MaxAttempts int `json:"max_attempts,omitempty"`
	// BackoffMS is the base delay before the second attempt; each further
	// attempt doubles it (exponential backoff).
	BackoffMS int `json:"backoff_ms,omitempty"`
}

// Validate bounds the policy.
func (p *RetryPolicy) Validate() error {
	if p == nil {
		return nil
	}
	if p.MaxAttempts < 0 || p.MaxAttempts > maxRetryAttempts {
		return fmt.Errorf("sweep: retry max_attempts %d out of range [0,%d]", p.MaxAttempts, maxRetryAttempts)
	}
	if p.BackoffMS < 0 || p.BackoffMS > maxRetryBackoffMS {
		return fmt.Errorf("sweep: retry backoff_ms %d out of range [0,%d]", p.BackoffMS, maxRetryBackoffMS)
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
func (r Runner) runPointRetry(cache *programCache, p Point, prior int, onAttempt func(int) error) (Result, int, error) {
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
		res = r.runPointExec(cache, p, a)
		if res.Err == "" || a >= last || !transientFailure(res) {
			return res, a, nil
		}
		time.Sleep(policy.backoff(a + 1)) // no-op without a backoff
	}
}
