package shard

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Backend is the per-shard query surface the robust scatter calls. A
// shard's own *core.Database satisfies it; tests and the fault-injection
// harness substitute wrappers via SetShardBackend. Only the query path
// goes through a Backend — writes, lookups, and shape accessors always
// hit the shard's real database, because fault tolerance is a property of
// the latency-sensitive serving path, not of ingestion.
type Backend interface {
	// SearchCtx runs the three-phase range search under ctx.
	SearchCtx(ctx context.Context, q *core.Sequence, eps float64) ([]core.Match, core.SearchStats, error)
	// SearchKNNBoundedCtx runs the local top-k under ctx, pruning against
	// — and tightening — the query's shared live bound (nil: unbounded).
	SearchKNNBoundedCtx(ctx context.Context, q *core.Sequence, k int, bound *core.KNNBound) ([]core.KNNResult, error)
	// SearchBatchCtx answers several range queries in one pass under ctx,
	// one result set and stats value per query, in input order.
	SearchBatchCtx(ctx context.Context, qs []*core.Sequence, eps float64) ([][]core.Match, []core.SearchStats, error)
	// SearchMetricCtx runs the exact-metric range search under ctx.
	SearchMetricCtx(ctx context.Context, q *core.Sequence, eps float64, m core.Metric) ([]core.MetricMatch, core.SearchStats, error)
	// SearchKNNMetricBoundedCtx runs the local metric top-k under ctx;
	// the shared bound holds exact distances under the same metric, so
	// shard-local pruning uses the metric's own lower bounds against it.
	SearchKNNMetricBoundedCtx(ctx context.Context, q *core.Sequence, k int, bound *core.KNNBound, m core.Metric) ([]core.KNNResult, error)
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

// SearchCtx applies the next scripted fault, then forwards to the wrapped
// backend.
func (f *FaultDB) SearchCtx(ctx context.Context, q *core.Sequence, eps float64) ([]core.Match, core.SearchStats, error) {
	if err := f.apply(ctx); err != nil {
		return nil, core.SearchStats{}, err
	}
	return f.inner.SearchCtx(ctx, q, eps)
}

// SearchKNNBoundedCtx applies the next scripted fault, then forwards to
// the wrapped backend.
func (f *FaultDB) SearchKNNBoundedCtx(ctx context.Context, q *core.Sequence, k int, bound *core.KNNBound) ([]core.KNNResult, error) {
	if err := f.apply(ctx); err != nil {
		return nil, err
	}
	return f.inner.SearchKNNBoundedCtx(ctx, q, k, bound)
}

// SearchBatchCtx applies the next scripted fault, then forwards to the
// wrapped backend. A batch consumes one fault — it models one network
// call, however many queries ride in it.
func (f *FaultDB) SearchBatchCtx(ctx context.Context, qs []*core.Sequence, eps float64) ([][]core.Match, []core.SearchStats, error) {
	if err := f.apply(ctx); err != nil {
		return nil, nil, err
	}
	return f.inner.SearchBatchCtx(ctx, qs, eps)
}

// SearchMetricCtx applies the next scripted fault, then forwards to the
// wrapped backend.
func (f *FaultDB) SearchMetricCtx(ctx context.Context, q *core.Sequence, eps float64, m core.Metric) ([]core.MetricMatch, core.SearchStats, error) {
	if err := f.apply(ctx); err != nil {
		return nil, core.SearchStats{}, err
	}
	return f.inner.SearchMetricCtx(ctx, q, eps, m)
}

// SearchKNNMetricBoundedCtx applies the next scripted fault, then
// forwards to the wrapped backend.
func (f *FaultDB) SearchKNNMetricBoundedCtx(ctx context.Context, q *core.Sequence, k int, bound *core.KNNBound, m core.Metric) ([]core.KNNResult, error) {
	if err := f.apply(ctx); err != nil {
		return nil, err
	}
	return f.inner.SearchKNNMetricBoundedCtx(ctx, q, k, bound, m)
}
