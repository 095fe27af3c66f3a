package shard

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Policy configures the fault-tolerance of the scatter-gather query path:
// per-shard deadlines, bounded retry with exponential backoff, hedged
// requests for stragglers, and graceful degradation to partial results.
// The zero value disables every mechanism and reproduces the original
// fail-fast scatter exactly.
//
// The mechanisms compose per shard call, outermost to innermost:
//
//	retry loop (Retries, Backoff)
//	  └─ attempt: per-attempt deadline (ShardTimeout)
//	       └─ primary call ── after HedgeAfter with no reply ── hedge call
//
// A hedge races a second identical call against the primary inside the
// same attempt; the first success wins and the loser is canceled through
// its context. Retries re-run the whole attempt (hedging included) after
// an error, sleeping Backoff<<attempt between tries. Whatever happens,
// the caller's own context deadline is never exceeded: it parents every
// per-attempt context and is checked before every retry sleep.
type Policy struct {
	// ShardTimeout bounds each per-shard attempt (primary and hedge
	// together). 0 means no per-attempt deadline — the caller's context
	// is the only bound.
	ShardTimeout time.Duration
	// Retries is how many additional attempts a failed shard call gets
	// after the first. 0 disables retry.
	Retries int
	// Backoff is the base sleep between retry attempts, doubling each
	// attempt (Backoff, 2·Backoff, 4·Backoff, …). 0 retries immediately.
	Backoff time.Duration
	// HedgeAfter launches a second identical call against the same shard
	// when the primary has not answered within this duration — the
	// classic tail-latency hedge, seeded from the straggler-gap metric
	// (mdseq_shard_straggler_gap_seconds): set it near the observed P99
	// per-shard latency so hedges fire only for stragglers. 0 disables
	// hedging.
	HedgeAfter time.Duration
	// AllowPartial degrades instead of failing: when a shard exhausts
	// its attempts, its results are skipped and the merged answer is
	// flagged Partial with ShardsAnswered telling how many shards
	// contributed. Without it, any shard failure fails the whole query.
	AllowPartial bool
}

// hedged reports whether the policy ever launches hedge requests.
func (p Policy) hedged() bool { return p.HedgeAfter > 0 }

// SetPolicy installs the fault-tolerance policy for subsequent queries.
// Safe to call while queries are in flight; in-flight scatters keep the
// policy they started with. The zero Policy restores fail-fast behavior.
func (s *ShardedDB) SetPolicy(p Policy) { s.pol.Store(&p) }

// Policy returns the fault-tolerance policy currently in force.
func (s *ShardedDB) Policy() Policy {
	if p := s.pol.Load(); p != nil {
		return *p
	}
	return Policy{}
}

// robustCall runs one per-shard operation under the policy: per-attempt
// timeout, optional hedging, bounded retry with exponential backoff. ctx
// is the caller's context (query deadline / client disconnect); it parents
// every attempt and aborts the retry loop as soon as it fires, so a dead
// client or an expired query deadline never waits out a backoff sleep.
func robustCall(ctx context.Context, p Policy, m *shardMetrics, call func(context.Context) (core.Result, error)) (core.Result, error) {
	for attempt := 0; ; attempt++ {
		v, err := hedgedAttempt(ctx, p, m, attempt, call)
		if err == nil {
			return v, nil
		}
		// The caller's own context firing is terminal: retrying cannot
		// beat a deadline that has already passed.
		if ctx.Err() != nil || attempt >= p.Retries {
			return core.Result{}, err
		}
		m.incRetry()
		if p.Backoff > 0 {
			t := time.NewTimer(p.Backoff << attempt)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return core.Result{}, searchAborted(ctx.Err())
			}
		}
	}
}

// hedgedAttempt runs one attempt: the primary call under the per-attempt
// deadline, plus — when the policy hedges and the primary is silent past
// HedgeAfter — a second identical call racing it. The first success wins
// and cancels the loser via the shared attempt context; if every launched
// call fails, the first error is returned. The results channel is
// buffered for every possible sender, so a losing call's goroutine never
// leaks even though nobody waits for it.
func hedgedAttempt(ctx context.Context, p Policy, m *shardMetrics, attempt int, call func(context.Context) (core.Result, error)) (core.Result, error) {
	tr := obs.FromContext(ctx)
	actx := ctx
	cancel := context.CancelFunc(func() {})
	if p.ShardTimeout > 0 {
		actx, cancel = context.WithTimeout(ctx, p.ShardTimeout)
	} else if p.hedged() {
		// Hedging needs a cancelable context so the losing call can be
		// reclaimed the moment the winner returns.
		actx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	type outcome struct {
		v     core.Result
		err   error
		hedge bool
	}
	results := make(chan outcome, 2)
	launch := func(hedge bool) {
		go func() {
			// Each launched call (primary or hedge) gets its own span, so a
			// retained trace shows every attempt a retried/hedged query
			// made and which one produced the answer.
			cctx := actx
			var end func(...obs.Attr)
			if tr != nil {
				cctx, end = obs.StartSpan(actx, "attempt")
			}
			v, err := call(cctx)
			if end != nil {
				end(obs.Int("attempt", attempt), obs.Bool("hedge", hedge),
					obs.Str("outcome", attemptOutcome(err)))
			}
			results <- outcome{v: v, err: err, hedge: hedge}
		}()
	}
	launch(false)
	launched := 1

	var hedgeTimer <-chan time.Time
	var stopTimer func() bool = func() bool { return false }
	if p.hedged() {
		t := time.NewTimer(p.HedgeAfter)
		hedgeTimer = t.C
		stopTimer = t.Stop
	}
	defer stopTimer()

	var firstErr error
	for received := 0; received < launched; {
		select {
		case r := <-results:
			received++
			if r.err == nil {
				if launched == 2 {
					m.hedgeOutcome(r.hedge)
				}
				return r.v, nil
			}
			if errors.Is(r.err, context.DeadlineExceeded) && ctx.Err() == nil {
				// The per-attempt deadline fired, not the caller's: the
				// shard blew its budget.
				m.incDeadlineHit()
			}
			if firstErr == nil {
				firstErr = r.err
			}
		case <-hedgeTimer:
			hedgeTimer = nil
			launch(true)
			launched++
			m.incHedge()
		}
	}
	return core.Result{}, firstErr
}

// attemptOutcome labels one launched call's result for its span.
func attemptOutcome(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, context.Canceled):
		return "canceled"
	default:
		return "error"
	}
}

// searchAborted wraps a fired caller context the same way core does, so
// the error surface is uniform whether the deadline fired inside a shard
// search or between attempts.
func searchAborted(err error) error {
	return fmt.Errorf("shard: query aborted: %w", err)
}
