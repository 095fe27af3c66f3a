package shard

// A scatter answers with every shard's answer or fails: these tests put a
// failing, hung or slow node in one shard's place (faultNode, assembled
// with NewWithNodes) and check, for every query kind, that a shard error
// fails the query with that error, that the caller's deadline bounds the
// scatter, and that no goroutine outlives the query. The CI workflow runs
// them with -race -count=2.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

var errInjected = errors.New("injected shard failure")

// faultNode is one shard of a test database: the shard's own database
// with Do — the one method a scatter calls — overridden to block until
// the call's context is done (hang), to sleep first, or to fail with err.
// Set the fields between queries, never during one.
type faultNode struct {
	*core.Database
	hang  bool
	sleep time.Duration
	err   error
}

func (f *faultNode) Do(ctx context.Context, q core.Query) (core.Result, error) {
	if f.hang {
		<-ctx.Done()
		return core.Result{}, ctx.Err()
	}
	if f.sleep > 0 {
		t := time.NewTimer(f.sleep)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return core.Result{}, ctx.Err()
		}
	}
	if f.err != nil {
		return core.Result{}, f.err
	}
	return f.Database.Do(ctx, q)
}

// faultDB loads seqs into n shards and returns a database over the same
// shard databases with a faultNode in each shard's place.
func faultDB(t *testing.T, seqs []*core.Sequence, n int) (*ShardedDB, []*faultNode) {
	t.Helper()
	loaded := newSharded(t, seqs, n) // closes the shard databases at cleanup
	nodes := make([]Node, n)
	faults := make([]*faultNode, n)
	for i := range nodes {
		faults[i] = &faultNode{Database: loaded.Shard(i).(*core.Database)}
		nodes[i] = faults[i]
	}
	sdb, err := NewWithNodes(nodes)
	if err != nil {
		t.Fatal(err)
	}
	return sdb, faults
}

// faultQueries is one query of every kind: range and kNN under D and DTW,
// and the exhaustive scan.
func faultQueries(q *core.Sequence) map[string]core.Query {
	dtw := core.MetricDTW{Window: -1}
	return map[string]core.Query{
		"range/d":   {Seq: q, Eps: 0.25},
		"range/dtw": {Seq: q, Eps: 0.25, Metric: dtw},
		"knn/d":     {Seq: q, Kind: core.KNN, K: 5},
		"knn/dtw":   {Seq: q, Kind: core.KNN, K: 5, Metric: dtw},
		"scan":      {Seq: q, Kind: core.Scan, Eps: 0.25},
	}
}

// waitGoroutines waits up to 2 s for the goroutine count to fall back to
// base, taken before the query: a shard call that outlived its scatter
// would keep it above.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for n := runtime.NumGoroutine(); n > base; n = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines still running 2 s after the query, %d before it:\n%s",
				n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFaultShardErrorFailsQuery: one failing shard fails the query of
// every kind with an error that wraps the shard's and names the shard —
// promptly, so a kNN's healthy shards do not wait for it at their meeting.
func TestFaultShardErrorFailsQuery(t *testing.T) {
	const n, target = 4, 2
	seqs := corpus(t, 48, 64, 42)
	sdb, nodes := faultDB(t, clone(seqs), n)
	nodes[target].err = errInjected
	q := &core.Sequence{Label: "query", Points: seqs[3].Points[8:40]}
	for name, query := range faultQueries(q) {
		t.Run(name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			t0 := time.Now()
			_, err := sdb.Do(ctx, query)
			if took := time.Since(t0); took > 10*time.Second {
				t.Fatalf("the query took %v: its shards waited for one that had failed", took)
			}
			if !errors.Is(err, errInjected) {
				t.Fatalf("err = %v, want the injected error", err)
			}
			if want := fmt.Sprintf("shard: shard %d: ", target); !strings.HasPrefix(err.Error(), want) {
				t.Fatalf("err = %q, want it prefixed %q", err, want)
			}
			waitGoroutines(t, base)
		})
	}
}

// TestFaultHungShardRespectsCallerDeadline: the caller's context deadline
// propagates into every shard call, so a shard that never answers cannot
// stall a query of any kind past it, and its call ends with the query.
func TestFaultHungShardRespectsCallerDeadline(t *testing.T) {
	const n, target = 4, 1
	seqs := corpus(t, 48, 64, 42)
	sdb, nodes := faultDB(t, clone(seqs), n)
	nodes[target].hang = true
	q := &core.Sequence{Label: "query", Points: seqs[3].Points[8:40]}
	for name, query := range faultQueries(q) {
		t.Run(name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			t0 := time.Now()
			_, err := sdb.Do(ctx, query)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want context.DeadlineExceeded", err)
			}
			if took := time.Since(t0); took > 5*time.Second {
				t.Fatalf("query took %v despite a 50ms caller deadline", took)
			}
			waitGoroutines(t, base)
		})
	}
}

// TestFaultAllShardsDown: when every shard fails, the query fails — it
// never comes back as an empty success.
func TestFaultAllShardsDown(t *testing.T) {
	seqs := corpus(t, 16, 48, 9)
	sdb, nodes := faultDB(t, clone(seqs), 2)
	for _, nd := range nodes {
		nd.err = errInjected
	}
	q := &core.Sequence{Label: "query", Points: seqs[0].Points[:16]}
	base := runtime.NumGoroutine()
	defer waitGoroutines(t, base)
	if _, _, err := sdb.SearchCtx(context.Background(), q, 0.25); !errors.Is(err, errInjected) {
		t.Fatalf("all shards down: err = %v, want errInjected", err)
	}
	if _, err := sdb.SearchKNNCtx(context.Background(), q, 3); !errors.Is(err, errInjected) {
		t.Fatalf("all shards down kNN: err = %v, want errInjected", err)
	}
}

// TestFaultKNNRendezvous: the shards of a kNN scatter meet after their
// first refinements (knnScatter), and neither a failing shard nor a slow
// one may strand its siblings there. A shard that fails before it refines
// anything leaves, so the query fails with its error at once, not when the
// context fires; a slow shard is waited for, and the answer is the scan's.
func TestFaultKNNRendezvous(t *testing.T) {
	const n, target, k = 4, 2, 5
	seqs := corpus(t, 48, 64, 42)
	q := &core.Sequence{Label: "query", Points: seqs[3].Points[8:40]}
	for _, c := range []struct {
		name  string
		fault faultNode
	}{
		{"error", faultNode{err: errInjected}},
		{"delay", faultNode{sleep: 20 * time.Millisecond}},
	} {
		for _, m := range []core.Metric{core.MetricD{}, core.MetricDTW{Window: -1}} {
			sdb, nodes := faultDB(t, clone(seqs), n)
			nodes[target].err, nodes[target].sleep = c.fault.err, c.fault.sleep
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			t0 := time.Now()
			got, err := sdb.SearchKNNMetricCtx(ctx, q, k, m)
			took := time.Since(t0)
			cancel()
			if took > 10*time.Second {
				t.Fatalf("%s metric=%s: the scatter took %v: its shards waited for one that had left", c.name, m.Name(), took)
			}
			if c.fault.err != nil {
				if !errors.Is(err, errInjected) {
					t.Fatalf("%s metric=%s: err = %v, want the injected error", c.name, m.Name(), err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s metric=%s: %v", c.name, m.Name(), err)
			}
			gk, scan := knnKeys(got), scanTopK(t, sdb, q, k, m)
			if len(gk) != len(scan) {
				t.Fatalf("%s metric=%s: %d neighbors, exhaustive scan has %d", c.name, m.Name(), len(gk), len(scan))
			}
			for i, key := range scan {
				if !strings.HasPrefix(gk[i], key+":") {
					t.Fatalf("%s metric=%s: neighbor %d is %s, exhaustive scan says %s", c.name, m.Name(), i, gk[i], key)
				}
			}
		}
	}
}
