package shard

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/geom"
)

// TestMergeStatsQueryMBRsTakenOnce is the regression test for the merge
// bug where every folded shard overwrote QueryMBRs, so the merged value
// was whichever shard happened to fold last — wrong whenever a later
// shard reported a different (e.g. zero) value.
func TestMergeStatsQueryMBRsTakenOnce(t *testing.T) {
	var dst core.SearchStats
	mergeStats(&dst, core.SearchStats{QueryMBRs: 5, CandidatesDmbr: 2})
	mergeStats(&dst, core.SearchStats{QueryMBRs: 7, CandidatesDmbr: 3})
	if dst.QueryMBRs != 5 {
		t.Fatalf("QueryMBRs = %d after merging 5 then 7; want the first shard's 5", dst.QueryMBRs)
	}
	if dst.CandidatesDmbr != 5 {
		t.Fatalf("CandidatesDmbr = %d, want summed 5", dst.CandidatesDmbr)
	}
	// A zero-valued later fold must not erase it either.
	mergeStats(&dst, core.SearchStats{})
	if dst.QueryMBRs != 5 {
		t.Fatalf("QueryMBRs = %d after zero fold, want 5", dst.QueryMBRs)
	}
}

// TestScatterQueryMBRsMatchShards asserts end to end that the merged
// QueryMBRs equals every answered shard's value — they all partition the
// same query under the same config.
func TestScatterQueryMBRsMatchShards(t *testing.T) {
	seqs := corpus(t, 32, 64, 77)
	sdb := newSharded(t, clone(seqs), 4)
	q := &core.Sequence{Label: "query", Points: seqs[5].Points[4:36]}
	_, st, per, err := sdb.SearchShardsCtx(context.Background(), q, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	for _, ps := range per {
		if ps.Stats.QueryMBRs != st.QueryMBRs {
			t.Fatalf("shard %d QueryMBRs %d != merged %d", ps.Shard, ps.Stats.QueryMBRs, st.QueryMBRs)
		}
	}
}

// TestShardedCacheHitAndInvalidation covers the front cache end to end:
// fill, hit, write-invalidate, refill — and the shards holding no cache of
// their own.
func TestShardedCacheHitAndInvalidation(t *testing.T) {
	seqs := corpus(t, 32, 64, 78)
	sdb := newSharded(t, clone(seqs), 4)
	sdb.SetCache(cache.New(cache.Config{}))
	for i := 0; i < sdb.Shards(); i++ {
		if sdb.Shard(i).QueryCache() != nil {
			t.Fatalf("shard %d holds a cache under the front cache", i)
		}
	}
	q := &core.Sequence{Label: "query", Points: seqs[5].Points[4:36]}

	first, st1, err := sdb.SearchCtx(context.Background(), q, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if st1.CacheHit {
		t.Fatal("first scatter flagged as cache hit")
	}
	second, st2, err := sdb.SearchCtx(context.Background(), q, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.CacheHit {
		t.Fatal("repeated scatter missed the front cache")
	}
	if !reflect.DeepEqual(matchKeys(t, second), matchKeys(t, first)) {
		t.Fatal("cached scatter differs from computed one")
	}

	// The per-shard stats survive the cache for the shard-diagnostics path.
	_, _, per, err := sdb.SearchShardsCtx(context.Background(), q, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(per) != sdb.Shards() {
		t.Fatalf("cached SearchShards returned %d shard stats, want %d", len(per), sdb.Shards())
	}

	// A write — to any shard — invalidates the whole front cache.
	cp := seqs[5].Clone()
	cp.Label = "copy-of-5"
	id, err := sdb.Add(cp)
	if err != nil {
		t.Fatal(err)
	}
	third, st3, err := sdb.SearchCtx(context.Background(), q, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if st3.CacheHit {
		t.Fatal("scatter after a write served from the cache")
	}
	found := false
	for _, m := range third {
		if m.SeqID == id {
			found = true
		}
	}
	if !found {
		t.Fatal("newly added copy missing from post-write scatter")
	}
}

// TestShardedKNNCacheIsolation proves cached gathered kNN answers are
// copied on every hit and survive caller mutation.
func TestShardedKNNCacheIsolation(t *testing.T) {
	seqs := corpus(t, 32, 64, 79)
	sdb := newSharded(t, clone(seqs), 3)
	sdb.SetCache(cache.New(cache.Config{}))
	q := &core.Sequence{Label: "query", Points: seqs[5].Points[4:36]}

	first, err := sdb.SearchKNNCtx(context.Background(), q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 {
		t.Fatal("no neighbors")
	}
	if sdb.QueryCache().Len() == 0 {
		t.Fatal("gathered kNN answer not cached")
	}
	second, err := sdb.SearchKNNCtx(context.Background(), q, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := second[0].SeqID
	second[0].SeqID = 0xDEAD
	third, err := sdb.SearchKNNCtx(context.Background(), q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if third[0].SeqID != want {
		t.Fatalf("cache entry corrupted by caller mutation: SeqID = %#x", third[0].SeqID)
	}
}

// TestShardedBatchMatchesSearch proves every batch member's merged
// answer equals its solo scatter, duplicates flagged as reused.
func TestShardedBatchMatchesSearch(t *testing.T) {
	seqs := corpus(t, 48, 64, 80)
	sdb := newSharded(t, clone(seqs), 4)
	const eps = 0.25
	qs := []*core.Sequence{
		{Label: "q0", Points: seqs[3].Points[8:40]},
		{Label: "q1", Points: seqs[11].Points[0:32]},
		{Label: "q2", Points: seqs[20].Points[16:48]},
	}
	qs = append(qs, qs[1]) // duplicate

	outs, stats, err := sdb.SearchBatchCtx(context.Background(), qs, eps)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(qs) {
		t.Fatalf("batch returned %d result sets for %d queries", len(outs), len(qs))
	}
	for i, q := range qs {
		want, wst, err := sdb.SearchCtx(context.Background(), q, eps)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(matchKeys(t, outs[i]), matchKeys(t, want)) {
			t.Fatalf("query %d: batch answer differs from solo scatter", i)
		}
		if stats[i].QueryMBRs != wst.QueryMBRs {
			t.Fatalf("query %d: stats %+v vs solo %+v", i, stats[i], wst)
		}
	}
	if !stats[3].CacheHit {
		t.Error("duplicate batch member not flagged as reused")
	}
	if stats[0].CacheHit || stats[1].CacheHit || stats[2].CacheHit {
		t.Error("first occurrence flagged as reused")
	}
}

// TestShardedBatchFrontCache proves the batch path fills and reads the
// front cache, sharing entries with the single-query scatter.
func TestShardedBatchFrontCache(t *testing.T) {
	seqs := corpus(t, 32, 64, 81)
	sdb := newSharded(t, clone(seqs), 4)
	sdb.SetCache(cache.New(cache.Config{}))
	q := &core.Sequence{Label: "query", Points: seqs[5].Points[4:36]}

	if _, st, err := sdb.SearchCtx(context.Background(), q, 0.25); err != nil || st.CacheHit {
		t.Fatalf("seed scatter: err=%v hit=%v", err, st.CacheHit)
	}
	_, stats, err := sdb.SearchBatchCtx(context.Background(), []*core.Sequence{q}, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if !stats[0].CacheHit {
		t.Fatal("batch member missed the front cache after a solo scatter filled it")
	}

	q2 := &core.Sequence{Label: "query2", Points: seqs[9].Points[8:40]}
	if _, _, err := sdb.SearchBatchCtx(context.Background(), []*core.Sequence{q2}, 0.25); err != nil {
		t.Fatal(err)
	}
	if _, st, err := sdb.SearchCtx(context.Background(), q2, 0.25); err != nil || !st.CacheHit {
		t.Fatalf("solo scatter after batch fill: err=%v hit=%v, want hit", err, st.CacheHit)
	}
}

// TestShardedConcurrentCacheInvalidation interleaves router writes with
// cached scatters and batches: a reader observing c completed adds must
// see at least c copies of the query. Run with -race.
func TestShardedConcurrentCacheInvalidation(t *testing.T) {
	seqs := corpus(t, 16, 48, 82)
	sdb := newSharded(t, clone(seqs), 3)
	sdb.SetCache(cache.New(cache.Config{}))
	q := &core.Sequence{Label: "query", Points: seqs[2].Points[0:32]}

	var added atomic.Int64
	const copies = 10
	var wg sync.WaitGroup
	errs := make(chan error, 16)

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < copies; i++ {
			cp, err := core.NewSequence("copy", append([]geom.Point(nil), q.Points...))
			if err != nil {
				errs <- err
				return
			}
			if _, err := sdb.Add(cp); err != nil {
				errs <- err
				return
			}
			added.Add(1)
			time.Sleep(time.Millisecond)
		}
	}()

	reader := func(batch bool) {
		defer wg.Done()
		for added.Load() < copies {
			floor := added.Load()
			var ms []core.Match
			var err error
			if batch {
				var outs [][]core.Match
				outs, _, err = sdb.SearchBatchCtx(context.Background(), []*core.Sequence{q}, 0.02)
				if err == nil {
					ms = outs[0]
				}
			} else {
				ms, _, err = sdb.SearchCtx(context.Background(), q, 0.02)
			}
			if err != nil {
				errs <- err
				return
			}
			found := int64(0)
			for _, m := range ms {
				if m.Seq.Label == "copy" {
					found++
				}
			}
			if found < floor {
				errs <- errStaleScatter{floor: floor, found: found}
				return
			}
		}
	}
	for g := 0; g < 2; g++ {
		wg.Add(2)
		go reader(false)
		go reader(true)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

type errStaleScatter struct{ floor, found int64 }

func (e errStaleScatter) Error() string {
	return fmt.Sprintf("stale scatter cache hit: found %d copies, %d adds completed before the search",
		e.found, e.floor)
}

// TestAddAllRegionOnlyForACache: AddAll computes the region it wrote only
// for a cache to invalidate by. With a cache attached to a loaded
// database, a batch far from a cached answer leaves that answer cached (a
// near one drops it); into empty shards the batch invalidates everything,
// the empty answer cached before it included; with no cache attached it
// computes nothing, which this test sees only as a load that still serves
// the batch.
func TestAddAllRegionOnlyForACache(t *testing.T) {
	seqs := corpus(t, 32, 64, 79)
	q := &core.Sequence{Label: "query", Points: seqs[5].Points[4:36]}
	far := seqs[9].Clone()
	far.Label = "far"
	for _, p := range far.Points {
		for k := range p {
			p[k] += 100
		}
	}
	near := seqs[5].Clone()
	near.Label = "near"

	sdb := newSharded(t, clone(seqs), 4)
	sdb.SetCache(cache.New(cache.Config{}))
	cached := func() bool {
		t.Helper()
		_, st, err := sdb.SearchCtx(context.Background(), q, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		return st.CacheHit
	}
	cached()
	if _, err := sdb.AddAll([]*core.Sequence{far}); err != nil {
		t.Fatal(err)
	}
	if !cached() {
		t.Error("a batch far from the cached answer invalidated it")
	}
	if _, err := sdb.AddAll([]*core.Sequence{near}); err != nil {
		t.Fatal(err)
	}
	if cached() {
		t.Error("a batch within the cached answer's reach left it cached")
	}

	empty, err := New(core.Options{Dim: 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer empty.Close()
	empty.SetCache(cache.New(cache.Config{}))
	if m, _, err := empty.SearchCtx(context.Background(), q, 0.25); err != nil || len(m) != 0 {
		t.Fatalf("empty shards: %d matches, %v", len(m), err)
	}
	if _, err := empty.AddAll(clone(seqs)); err != nil {
		t.Fatal(err)
	}
	if m, st, err := empty.SearchCtx(context.Background(), q, 0.25); err != nil || len(m) == 0 || st.CacheHit {
		t.Fatalf("after AddAll into empty shards: %d matches, cache hit %v, %v", len(m), st.CacheHit, err)
	}

	bare := newSharded(t, clone(seqs), 4)
	if m, _, err := bare.SearchCtx(context.Background(), q, 0.25); err != nil || len(m) == 0 {
		t.Fatalf("AddAll with no cache attached: %d matches, %v", len(m), err)
	}
}
