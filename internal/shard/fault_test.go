package shard

// Deterministic fault-injection tests for the robust scatter-gather path:
// every test wires a FaultDB as one shard's query backend and proves a
// Policy mechanism end to end — deadlines actually bound hung shards,
// retries actually re-run, hedges actually race and cancel their loser,
// and partial results are exactly the answered shards' answers, flagged.
// The CI workflow runs this file with -race -count=2 (go test -run
// TestFault ./internal/shard/...).

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

var errInjected = errors.New("injected shard failure")

// faultFixture builds an n-shard database with a corpus that populates
// every shard, returns a query matching several sequences, and installs
// a FaultDB in front of the target shard's query path.
func faultFixture(t *testing.T, n, target int, script ...Fault) (*ShardedDB, *core.Sequence, *FaultDB) {
	t.Helper()
	seqs := corpus(t, 48, 64, 42)
	sdb := newSharded(t, clone(seqs), n)
	q := &core.Sequence{Label: "query", Points: seqs[3].Points[8:40]}
	fdb := NewFaultDB(sdb.Shard(target), script...)
	sdb.SetShardBackend(target, fdb)
	return sdb, q, fdb
}

// labelsOutsideShard returns the sorted labels of the unfaulted full
// answer set, keeping only matches stored outside the given shard — the
// exact answer a partial result excluding that shard must produce.
func labelsOutsideShard(t *testing.T, sdb *ShardedDB, q *core.Sequence, eps float64, exclude int) []string {
	t.Helper()
	full, _, err := sdb.SearchCtx(context.Background(), q, eps)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, m := range full {
		if sh, _ := sdb.SplitID(m.SeqID); sh != exclude {
			out = append(out, m.Seq.Label)
		}
	}
	sort.Strings(out)
	return out
}

func matchLabels(ms []core.Match) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Seq.Label
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// waitFor polls until cond holds or the deadline passes — used for
// observations that become true asynchronously (a canceled hang
// unblocking in its own goroutine).
func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitGoroutines waits up to 2 s for the goroutine count to fall back to
// base, taken once the fixture is built. A losing hedged attempt, and a
// hung call its canceled context releases, outlive the query that started
// them; this is the check that they end.
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

// TestFaultHungShardRespectsShardTimeout: a wedged shard cannot stall the
// query — the per-attempt deadline fires, the error surfaces as
// context.DeadlineExceeded, and the hung call is reclaimed through its
// canceled context.
func TestFaultHungShardRespectsShardTimeout(t *testing.T) {
	sdb, q, fdb := faultFixture(t, 4, 1, Fault{Hang: true})
	sdb.SetPolicy(Policy{ShardTimeout: 50 * time.Millisecond})
	base := runtime.NumGoroutine()

	t0 := time.Now()
	_, _, err := sdb.SearchCtx(context.Background(), q, 0.25)
	took := time.Since(t0)
	if err == nil {
		t.Fatal("hung shard: want error, got success")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hung shard error = %v, want context.DeadlineExceeded", err)
	}
	if took > 5*time.Second {
		t.Fatalf("query took %v despite 50ms shard timeout", took)
	}
	waitFor(t, 2*time.Second, func() bool { return fdb.Released() == 1 },
		"hung call released by its canceled context")
	waitGoroutines(t, base)
}

// TestFaultHungShardRespectsCallerDeadline: with no per-shard timeout at
// all, the caller's own context deadline still propagates into the shard
// call and unhangs it — deadline propagation end to end.
func TestFaultHungShardRespectsCallerDeadline(t *testing.T) {
	sdb, q, fdb := faultFixture(t, 4, 2, Fault{Hang: true})
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()

	t0 := time.Now()
	_, _, err := sdb.SearchCtx(ctx, q, 0.25)
	if err == nil {
		t.Fatal("hung shard under caller deadline: want error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want context.DeadlineExceeded", err)
	}
	if took := time.Since(t0); took > 5*time.Second {
		t.Fatalf("query took %v despite 50ms caller deadline", took)
	}
	waitFor(t, 2*time.Second, func() bool { return fdb.Released() == 1 },
		"hung call released by the caller's deadline")
	waitGoroutines(t, base)
}

// TestFaultPartialResultFlagged: with AllowPartial, a timed-out shard is
// skipped and the response is exactly the other shards' answers, flagged
// Partial with the answered shards listed.
func TestFaultPartialResultFlagged(t *testing.T) {
	const n, hung = 4, 1
	reg := obs.NewRegistry()
	seqs := corpus(t, 48, 64, 42)
	sdb := newSharded(t, clone(seqs), n)
	q := &core.Sequence{Label: "query", Points: seqs[3].Points[8:40]}
	want := labelsOutsideShard(t, sdb, q, 0.25, hung) // baseline before faults
	fdb := NewFaultDB(sdb.Shard(hung), Fault{Hang: true})
	fdb.Cycle = true
	sdb.SetShardBackend(hung, fdb)
	sdb.SetMetrics(reg)
	sdb.SetPolicy(Policy{ShardTimeout: 50 * time.Millisecond, AllowPartial: true})
	base := runtime.NumGoroutine()

	matches, st, per, err := sdb.SearchShardsCtx(context.Background(), q, 0.25)
	if err != nil {
		t.Fatalf("partial search failed outright: %v", err)
	}
	if !st.Partial {
		t.Fatal("stats not flagged Partial")
	}
	if st.ShardsAnswered != n-1 {
		t.Fatalf("ShardsAnswered = %d, want %d", st.ShardsAnswered, n-1)
	}
	if len(per) != n-1 {
		t.Fatalf("per-shard stats for %d shards, want %d", len(per), n-1)
	}
	for _, ps := range per {
		if ps.Shard == hung {
			t.Fatalf("hung shard %d present in answered list", hung)
		}
	}
	if got := matchLabels(matches); !equalStrings(got, want) {
		t.Fatalf("partial matches = %v, want the other shards' exact answers %v", got, want)
	}
	if got := reg.Counter("mdseq_shard_partial_results_total", "").Value(); got != 1 {
		t.Fatalf("partial_results_total = %d, want 1", got)
	}
	if got := reg.Counter("mdseq_shard_deadline_hits_total", "").Value(); got == 0 {
		t.Fatal("deadline_hits_total = 0, want >= 1")
	}
	waitGoroutines(t, base)
}

// TestFaultRetryRecovers: a shard that fails once and then heals is
// retried and the query succeeds completely — no partial flag, and the
// retry is visible in both the FaultDB call count and the counter.
func TestFaultRetryRecovers(t *testing.T) {
	reg := obs.NewRegistry()
	sdb, q, fdb := faultFixture(t, 4, 0, Fault{Err: errInjected})
	sdb.SetMetrics(reg)
	sdb.SetPolicy(Policy{Retries: 1, Backoff: time.Millisecond})

	matches, st, err := sdb.SearchCtx(context.Background(), q, 0.25)
	if err != nil {
		t.Fatalf("search with one retry budgeted: %v", err)
	}
	if st.Partial || st.ShardsAnswered != 4 {
		t.Fatalf("retried search flagged partial (%v, %d answered)", st.Partial, st.ShardsAnswered)
	}
	if fdb.Calls() != 2 {
		t.Fatalf("faulted shard saw %d calls, want 2 (original + retry)", fdb.Calls())
	}
	if got := reg.Counter("mdseq_shard_retries_total", "").Value(); got != 1 {
		t.Fatalf("retries_total = %d, want 1", got)
	}
	if len(matches) == 0 {
		t.Fatal("retried search returned no matches; fixture query should match")
	}
}

// TestFaultRetriesExhausted: failures beyond the retry budget fail the
// query (fail-fast without AllowPartial) with the injected error visible.
func TestFaultRetriesExhausted(t *testing.T) {
	sdb, q, fdb := faultFixture(t, 4, 0, Fault{Err: errInjected}, Fault{Err: errInjected})
	sdb.SetPolicy(Policy{Retries: 1, Backoff: time.Millisecond})
	if _, _, err := sdb.SearchCtx(context.Background(), q, 0.25); !errors.Is(err, errInjected) {
		t.Fatalf("exhausted retries: err = %v, want errInjected", err)
	}
	if fdb.Calls() != 2 {
		t.Fatalf("faulted shard saw %d calls, want 2", fdb.Calls())
	}
}

// TestFaultHedgeWinsAndCancelsPrimary: the primary wedges, the hedge
// launches after HedgeAfter, answers from the live backend, and the
// wedged primary is canceled — the query completes fast and completely,
// and the hedge race outcome lands in the counters.
func TestFaultHedgeWinsAndCancelsPrimary(t *testing.T) {
	reg := obs.NewRegistry()
	sdb, q, fdb := faultFixture(t, 4, 2, Fault{Hang: true})
	sdb.SetMetrics(reg)
	sdb.SetPolicy(Policy{ShardTimeout: 10 * time.Second, HedgeAfter: 10 * time.Millisecond})
	base := runtime.NumGoroutine()

	t0 := time.Now()
	_, st, err := sdb.SearchCtx(context.Background(), q, 0.25)
	took := time.Since(t0)
	if err != nil {
		t.Fatalf("hedged search failed: %v", err)
	}
	if st.Partial || st.ShardsAnswered != 4 {
		t.Fatalf("hedged search not complete: partial=%v answered=%d", st.Partial, st.ShardsAnswered)
	}
	if took > 5*time.Second {
		t.Fatalf("hedged search took %v; the hedge should beat the 10s shard timeout", took)
	}
	if fdb.Calls() != 2 {
		t.Fatalf("faulted shard saw %d calls, want 2 (primary + hedge)", fdb.Calls())
	}
	if got := reg.Counter("mdseq_shard_hedges_total", "").Value(); got != 1 {
		t.Fatalf("hedges_total = %d, want 1", got)
	}
	if got := reg.Counter("mdseq_shard_hedges_won_total", "").Value(); got != 1 {
		t.Fatalf("hedges_won_total = %d, want 1", got)
	}
	if got := reg.Counter("mdseq_shard_hedges_lost_total", "").Value(); got != 0 {
		t.Fatalf("hedges_lost_total = %d, want 0", got)
	}
	waitFor(t, 2*time.Second, func() bool { return fdb.Released() == 1 },
		"wedged primary canceled after the hedge won")
	waitGoroutines(t, base)
}

// TestFaultHedgeLosesCleanly: a hedge that fires but is beaten by its
// primary must not corrupt the result and must count as lost.
func TestFaultHedgeLosesCleanly(t *testing.T) {
	reg := obs.NewRegistry()
	// Primary is delayed just past HedgeAfter; the hedge is scripted to
	// hang, so the delayed primary always wins the race.
	sdb, q, _ := faultFixture(t, 4, 1, Fault{Delay: 30 * time.Millisecond}, Fault{Hang: true})
	sdb.SetMetrics(reg)
	sdb.SetPolicy(Policy{ShardTimeout: 10 * time.Second, HedgeAfter: 5 * time.Millisecond})
	base := runtime.NumGoroutine()

	_, st, err := sdb.SearchCtx(context.Background(), q, 0.25)
	if err != nil {
		t.Fatalf("search with losing hedge failed: %v", err)
	}
	if st.Partial || st.ShardsAnswered != 4 {
		t.Fatalf("losing hedge degraded the result: partial=%v answered=%d", st.Partial, st.ShardsAnswered)
	}
	if got := reg.Counter("mdseq_shard_hedges_total", "").Value(); got != 1 {
		t.Fatalf("hedges_total = %d, want 1", got)
	}
	if got := reg.Counter("mdseq_shard_hedges_lost_total", "").Value(); got != 1 {
		t.Fatalf("hedges_lost_total = %d, want 1", got)
	}
	// The hanging hedge outlives the answer until the winner's return
	// cancels it.
	waitGoroutines(t, base)
}

// TestFaultKNNDeadlineAndPartial: the kNN scatter honors the same policy
// — a hung shard times out, and with AllowPartial the neighbors come
// from the answered shards only.
func TestFaultKNNDeadlineAndPartial(t *testing.T) {
	const n, hung = 4, 1
	sdb, q, _ := faultFixture(t, n, hung)
	fdb := NewFaultDB(sdb.Shard(hung), Fault{Hang: true})
	fdb.Cycle = true
	sdb.SetShardBackend(hung, fdb)
	base := runtime.NumGoroutine()

	sdb.SetPolicy(Policy{ShardTimeout: 50 * time.Millisecond})
	if _, err := sdb.SearchKNNCtx(context.Background(), q, 5); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("kNN with hung shard: err = %v, want context.DeadlineExceeded", err)
	}

	sdb.SetPolicy(Policy{ShardTimeout: 50 * time.Millisecond, AllowPartial: true})
	nn, err := sdb.SearchKNNCtx(context.Background(), q, 5)
	if err != nil {
		t.Fatalf("partial kNN failed outright: %v", err)
	}
	if len(nn) == 0 {
		t.Fatal("partial kNN returned nothing")
	}
	for _, r := range nn {
		if sh, _ := sdb.SplitID(r.SeqID); sh == hung {
			t.Fatalf("partial kNN returned a neighbor from the hung shard %d", hung)
		}
	}
	waitGoroutines(t, base)
}

// TestFaultBackoffHonorsCallerDeadline: a retry loop with a long backoff
// must abandon the sleep the moment the caller's deadline fires.
func TestFaultBackoffHonorsCallerDeadline(t *testing.T) {
	sdb, q, _ := faultFixture(t, 4, 0, Fault{Err: errInjected}, Fault{Err: errInjected}, Fault{Err: errInjected})
	sdb.SetPolicy(Policy{Retries: 3, Backoff: 10 * time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, _, err := sdb.SearchCtx(ctx, q, 0.25)
	if err == nil {
		t.Fatal("want error when deadline fires mid-backoff")
	}
	if took := time.Since(t0); took > 5*time.Second {
		t.Fatalf("query took %v; the 10s backoff must be cut short by the 50ms deadline", took)
	}
}

// TestFaultZeroPolicyPassThrough: an installed but scriptless FaultDB
// under the zero policy is invisible — results identical to the pristine
// database, no robustness counters advanced.
func TestFaultZeroPolicyPassThrough(t *testing.T) {
	reg := obs.NewRegistry()
	sdb, q, fdb := faultFixture(t, 4, 3)
	sdb.SetMetrics(reg)

	sdb.SetShardBackend(3, nil) // pristine baseline
	want, _, err := sdb.SearchCtx(context.Background(), q, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	sdb.SetShardBackend(3, fdb)
	got, st, err := sdb.SearchCtx(context.Background(), q, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if !equalStrings(matchLabels(got), matchLabels(want)) {
		t.Fatal("pass-through FaultDB changed the answer set")
	}
	if st.Partial || st.ShardsAnswered != 4 {
		t.Fatalf("pass-through flagged partial: %v / %d", st.Partial, st.ShardsAnswered)
	}
	for _, c := range []string{
		"mdseq_shard_retries_total", "mdseq_shard_hedges_total",
		"mdseq_shard_deadline_hits_total", "mdseq_shard_partial_results_total",
	} {
		if v := reg.Counter(c, "").Value(); v != 0 {
			t.Fatalf("%s = %d under zero policy, want 0", c, v)
		}
	}
}

// TestFaultAllShardsDown: when every shard fails, AllowPartial must not
// fabricate an empty success — the query errors.
func TestFaultAllShardsDown(t *testing.T) {
	seqs := corpus(t, 16, 48, 9)
	sdb := newSharded(t, clone(seqs), 2)
	for i := 0; i < 2; i++ {
		f := NewFaultDB(sdb.Shard(i), Fault{Err: errInjected})
		f.Cycle = true
		sdb.SetShardBackend(i, f)
	}
	sdb.SetPolicy(Policy{AllowPartial: true})
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

// TestFaultPartialEqualsAnsweredShardsAcrossEps sweeps thresholds to
// confirm the partial answer is always exactly the union of the answered
// shards' answers — the subset guarantee DESIGN.md documents.
func TestFaultPartialEqualsAnsweredShardsAcrossEps(t *testing.T) {
	const n, hung = 3, 0
	seqs := corpus(t, 36, 64, 11)
	sdb := newSharded(t, clone(seqs), n)
	q := &core.Sequence{Label: "query", Points: seqs[5].Points[4:36]}
	base := runtime.NumGoroutine()
	defer waitGoroutines(t, base)
	for _, eps := range []float64{0.1, 0.2, 0.35} {
		want := labelsOutsideShard(t, sdb, q, eps, hung)
		f := NewFaultDB(sdb.Shard(hung), Fault{Err: errInjected})
		sdb.SetShardBackend(hung, f)
		sdb.SetPolicy(Policy{AllowPartial: true})
		got, st, err := sdb.SearchCtx(context.Background(), q, eps)
		if err != nil {
			t.Fatalf("eps=%g: %v", eps, err)
		}
		if !st.Partial || st.ShardsAnswered != n-1 {
			t.Fatalf("eps=%g: partial=%v answered=%d", eps, st.Partial, st.ShardsAnswered)
		}
		if !equalStrings(matchLabels(got), want) {
			t.Fatalf("eps=%g: partial answer %v != answered shards' answers %v",
				eps, matchLabels(got), want)
		}
		sdb.SetShardBackend(hung, nil)
		sdb.SetPolicy(Policy{})
	}
}
