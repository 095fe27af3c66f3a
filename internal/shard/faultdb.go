package shard

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Backend is the per-shard query surface the robust scatter calls. A
// shard's own database satisfies it; tests and the fault-injection harness
// substitute wrappers via SetShardBackend. Only the serving path goes
// through a Backend — writes, lookups, shape accessors and the Scan oracle
// always hit the shard's real database, because fault tolerance is a
// property of the latency-sensitive serving path, not of ingestion or of
// the reference a test compares with.
type Backend interface {
	// Do answers one query under ctx; the scatter calls nothing else.
	Do(ctx context.Context, q core.Query) (core.Result, error)
	// SearchCtx and SearchMetricCtx are Do under the names bench/trace.go
	// calls on a Backend; they go when ROADMAP item 5 re-points the harness.
	SearchCtx(ctx context.Context, q *core.Sequence, eps float64) ([]core.Match, core.SearchStats, error)
	// SearchMetricCtx is Do for a range search under a metric.
	SearchMetricCtx(ctx context.Context, q *core.Sequence, eps float64, m core.Metric) ([]core.MetricMatch, core.SearchStats, error)
}

var _ Backend = (*core.Database)(nil)

// Fault is one scripted behavior a FaultDB applies to a call before (or
// instead of) forwarding it to the wrapped backend. The zero Fault is a
// clean pass-through.
type Fault struct {
	// Delay stalls the call this long before forwarding it. The stall
	// honors the call's context: if the context fires first, the call
	// returns the context's error without touching the backend.
	Delay time.Duration
	// Err, when non-nil, is returned (after any Delay) without touching
	// the backend — an injected hard failure.
	Err error
	// Hang blocks until the call's context fires and returns the
	// context's error — a wedged shard. A Hang under a context with no
	// deadline blocks forever, which is exactly the failure mode the
	// deadline tests must prove impossible to hit from the serving path.
	Hang bool
}

// FaultDB wraps a per-shard Backend and injects scripted faults into its
// query calls — the deterministic harness behind the TestFault suite and
// the straggler benchmark. Each call consumes the next Fault in the
// script; calls beyond the script pass through cleanly (or, with Cycle,
// the script repeats forever, modeling a persistently flaky shard). All
// methods are safe for concurrent use.
type FaultDB struct {
	inner  Backend
	script []Fault
	// Cycle repeats the script indefinitely instead of passing through
	// once it is exhausted. Set before serving; not synchronized.
	Cycle bool

	mu       sync.Mutex
	next     int          // index into script of the next fault to apply
	calls    atomic.Int64 // every query call, faulted or clean
	released atomic.Int64 // Hang faults that unblocked via context
}

// NewFaultDB wraps inner with the given fault script.
func NewFaultDB(inner Backend, script ...Fault) *FaultDB {
	return &FaultDB{inner: inner, script: script}
}

// Calls returns how many query calls the wrapper has received — attempts,
// hedges, and retries all count, which is how tests assert "the retry
// actually happened" or "exactly one hedge was launched".
func (f *FaultDB) Calls() int { return int(f.calls.Load()) }

// Released returns how many Hang faults have unblocked because their
// call's context fired — the observable that proves hedge- and
// deadline-cancellation reach a wedged shard.
func (f *FaultDB) Released() int { return int(f.released.Load()) }

// take pops the next scripted fault, or a zero Fault past the script.
func (f *FaultDB) take() Fault {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.next >= len(f.script) {
		if !f.Cycle || len(f.script) == 0 {
			return Fault{}
		}
		f.next = 0
	}
	ft := f.script[f.next]
	f.next++
	return ft
}

// apply runs one scripted fault against ctx. A nil return means the call
// should proceed to the wrapped backend.
func (f *FaultDB) apply(ctx context.Context) error {
	f.calls.Add(1)
	ft := f.take()
	if ft.Hang {
		<-ctx.Done()
		f.released.Add(1)
		return searchAborted(ctx.Err())
	}
	if ft.Delay > 0 {
		t := time.NewTimer(ft.Delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return searchAborted(ctx.Err())
		}
	}
	return ft.Err
}

// Do applies the next scripted fault, then forwards to the wrapped
// backend. Whatever rides in one call — a batch sends a shard its queries
// one Do each — every call consumes one fault.
func (f *FaultDB) Do(ctx context.Context, q core.Query) (core.Result, error) {
	if err := f.apply(ctx); err != nil {
		return core.Result{}, err
	}
	return f.inner.Do(ctx, q)
}

// SearchCtx is Do for the paper's range search (see Backend).
func (f *FaultDB) SearchCtx(ctx context.Context, q *core.Sequence, eps float64) ([]core.Match, core.SearchStats, error) {
	res, err := f.Do(ctx, core.Query{Seq: q, Eps: eps})
	return res.Matches, res.Stats, err
}

// SearchMetricCtx is Do for a range search under m, nil meaning MetricD
// (see Backend).
func (f *FaultDB) SearchMetricCtx(ctx context.Context, q *core.Sequence, eps float64, m core.Metric) ([]core.MetricMatch, core.SearchStats, error) {
	if m == nil {
		m = core.MetricD{}
	}
	res, err := f.Do(ctx, core.Query{Seq: q, Eps: eps, Metric: m})
	return res.Matches, res.Stats, err
}
