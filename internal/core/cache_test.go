package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/geom"
)

// cachedDB builds a populated database with a query cache attached.
func cachedDB(t *testing.T, n int, seed int64) (*Database, *rand.Rand) {
	t.Helper()
	db := newTestDB(t, 3)
	rng := rand.New(rand.NewSource(seed))
	populateWalks(t, db, n, rng)
	db.SetCache(cache.New(cache.Config{}))
	return db, rng
}

// TestSearchCacheHit proves the second identical search is served from
// the cache with identical matches and the CacheHit flag set.
func TestSearchCacheHit(t *testing.T) {
	db, rng := cachedDB(t, 30, 200)
	q := randWalkSeq(rng, 30, 3)

	first, st1, err := db.Search(q, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if st1.CacheHit {
		t.Fatal("first search flagged as cache hit")
	}
	second, st2, err := db.Search(q, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.CacheHit {
		t.Fatal("second identical search missed the cache")
	}
	if len(second) != len(first) {
		t.Fatalf("cached result has %d matches, computed had %d", len(second), len(first))
	}
	for i := range first {
		if second[i].SeqID != first[i].SeqID || !almostEqual(second[i].MinDnorm, first[i].MinDnorm) {
			t.Fatalf("cached match %d differs", i)
		}
	}
	// The hit carries the original run's counters.
	if st2.CandidatesDmbr != st1.CandidatesDmbr || st2.DnormEvals != st1.DnormEvals {
		t.Fatalf("cached stats differ: %+v vs %+v", st2, st1)
	}
	// A different ε must not alias.
	_, st3, err := db.Search(q, 0.31)
	if err != nil {
		t.Fatal(err)
	}
	if st3.CacheHit {
		t.Fatal("different eps served from cache")
	}
}

// TestEveryWriteAdvancesCacheSeq pins that each write kind — Add, AddAll
// (both the bulk and the sequential path), Remove, AppendPoints —
// notifies the attached cache: its write-sequence counter advances, so an
// answer computed before any of them cannot be stored after it.
func TestEveryWriteAdvancesCacheSeq(t *testing.T) {
	db := newTestDB(t, 3)
	c := cache.New(cache.Config{})
	db.SetCache(c)
	rng := rand.New(rand.NewSource(201))

	e := c.Seq()
	step := func(op string, f func() error) {
		t.Helper()
		if err := f(); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if got := c.Seq(); got <= e {
			t.Fatalf("%s left the cache's write sequence at %d (was %d)", op, got, e)
		}
		e = c.Seq()
	}
	step("AddAll (bulk)", func() error {
		_, err := db.AddAll([]*Sequence{randWalkSeq(rng, 50, 3), randWalkSeq(rng, 50, 3)})
		return err
	})
	step("AddAll (sequential)", func() error {
		_, err := db.AddAll([]*Sequence{randWalkSeq(rng, 50, 3)})
		return err
	})
	var id uint32
	step("Add", func() error {
		var err error
		id, err = db.Add(randWalkSeq(rng, 50, 3))
		return err
	})
	step("AppendPoints", func() error {
		return db.AppendPoints(id, []geom.Point{{0.1, 0.2, 0.3}})
	})
	step("Remove", func() error { return db.Remove(id) })
}

// TestCacheInvalidatedByWrite proves a write between two identical
// searches prevents the second from returning the pre-write result.
func TestCacheInvalidatedByWrite(t *testing.T) {
	db, rng := cachedDB(t, 20, 202)
	q := randWalkSeq(rng, 30, 3)

	before, _, err := db.Search(q, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	// Store an exact copy of the query: it must show up after the write.
	cp, err := NewSequence("copy", append([]geom.Point(nil), q.Points...))
	if err != nil {
		t.Fatal(err)
	}
	id, err := db.Add(cp)
	if err != nil {
		t.Fatal(err)
	}
	after, st, err := db.Search(q, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHit {
		t.Fatal("search after a write was served from the cache")
	}
	found := false
	for _, m := range after {
		if m.SeqID == id {
			found = true
		}
	}
	if !found {
		t.Fatalf("exact copy (id %d) missing from post-write result (%d matches, was %d)",
			id, len(after), len(before))
	}
}

// TestCacheSharedAcrossSearchPaths proves a range query shares its cache
// entry however it arrives — Do, its adapter, a batch member: any one of
// them fills, all hit.
func TestCacheSharedAcrossSearchPaths(t *testing.T) {
	db, rng := cachedDB(t, 30, 203)
	q := randWalkSeq(rng, 30, 3)

	if _, st, err := db.Search(q, 0.3); err != nil || st.CacheHit {
		t.Fatalf("seed search: err=%v hit=%v", err, st.CacheHit)
	}
	if res, err := db.Do(context.Background(), Query{Seq: q, Eps: 0.3}); err != nil || !res.Stats.CacheHit {
		t.Fatalf("Do after Search: err=%v hit=%v", err, res.Stats.CacheHit)
	}
	outs, stats, err := db.SearchBatchCtx(context.Background(), []*Sequence{q}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if !stats[0].CacheHit {
		t.Fatal("batch after serial missed the cache")
	}
	if len(outs) != 1 {
		t.Fatalf("batch returned %d result sets", len(outs))
	}
}

// TestKNNCacheIsolation proves cached kNN results are copied on every
// hit, so a caller mutating its slice (as the scatter layer does when
// rewriting SeqID to global ids) cannot corrupt the cache.
func TestKNNCacheIsolation(t *testing.T) {
	db, rng := cachedDB(t, 20, 204)
	q := randWalkSeq(rng, 30, 3)

	first, err := db.SearchKNN(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 {
		t.Fatal("no neighbors")
	}
	second, err := db.SearchKNN(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Mutate the caller-visible copy the way shard gathering does.
	want := second[0].SeqID
	second[0].SeqID = 0xDEAD
	third, err := db.SearchKNN(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if third[0].SeqID != want {
		t.Fatalf("cache entry corrupted by caller mutation: SeqID = %#x", third[0].SeqID)
	}
}

// TestKNNCacheRuleUnderLiveBound pins the shard-tier cache rule: a kNN
// answer is stored only when it is the unbounded one, i.e. the shared bound
// ends no lower than the search's own k-th best. A search an external bound
// cut short may have dropped neighbors and stores nothing; one whose shared
// bound never bit — or bit only above its final k-th best — stores the
// unbounded answer; and a hit serves that answer whatever the bound,
// publishing its k-th distance.
func TestKNNCacheRuleUnderLiveBound(t *testing.T) {
	db, rng := cachedDB(t, 20, 205)
	q := randWalkSeq(rng, 30, 3)
	const k = 5

	if rs, err := knnBounded(context.Background(), db, q, k, boundAt(0), nil); err != nil || len(rs) != 0 {
		t.Fatalf("bound 0: %d results, err %v", len(rs), err)
	}
	if n := db.QueryCache().Len(); n != 0 {
		t.Fatalf("a search pruned by an external bound stored %d cache entries", n)
	}

	live := new(KNNBound)
	first, err := knnBounded(context.Background(), db, q, k, live, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != k {
		t.Fatalf("%d neighbors, want %d", len(first), k)
	}
	if live.Load() != first[k-1].Dist {
		t.Fatalf("shared bound %v after the search, want its k-th best %v", live.Load(), first[k-1].Dist)
	}
	if n := db.QueryCache().Len(); n != 1 {
		t.Fatalf("a search its shared bound never pruned stored %d cache entries, want 1", n)
	}

	tight := boundAt(0)
	hit, err := knnBounded(context.Background(), db, q, k, tight, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(hit) != k || hit[k-1].SeqID != first[k-1].SeqID {
		t.Fatalf("cache hit under a bound returned %d results, want the stored unbounded answer", len(hit))
	}

	// An external value the search pruned with from its first refinement
	// on, but which ends level with its own k-th best, dropped nothing the
	// unbounded search keeps; one ulp lower, it may have.
	kth := first[k-1].Dist
	for _, c := range []struct {
		ext    float64
		stored int
	}{{kth, 1}, {math.Nextafter(kth, 0), 0}} {
		db.SetCache(cache.New(cache.Config{}))
		rs, err := knnBounded(context.Background(), db, q, k, boundAt(c.ext), nil)
		if err != nil {
			t.Fatal(err)
		}
		if n := db.QueryCache().Len(); n != c.stored {
			t.Fatalf("external bound %v against own k-th %v: %d cache entries, want %d", c.ext, kth, n, c.stored)
		}
		if c.stored == 1 && fmt.Sprint(knnIDs(rs)) != fmt.Sprint(knnIDs(first)) {
			t.Fatalf("stored answer %v differs from the unbounded %v", knnIDs(rs), knnIDs(first))
		}
	}
}

// knnIDs lists a neighbor list's (id, distance bits, offset) triples.
func knnIDs(rs []KNNResult) [][3]uint64 {
	out := make([][3]uint64, len(rs))
	for i, r := range rs {
		out[i] = [3]uint64{uint64(r.SeqID), math.Float64bits(r.Dist), uint64(r.Offset)}
	}
	return out
}

// TestSearchBatchMatchesSerial proves every batch member gets exactly the
// solo-search answer, duplicates included, with no cache attached.
func TestSearchBatchMatchesSerial(t *testing.T) {
	db := newTestDB(t, 3)
	rng := rand.New(rand.NewSource(205))
	populateWalks(t, db, 60, rng)

	qs := make([]*Sequence, 0, 9)
	for i := 0; i < 4; i++ {
		qs = append(qs, randWalkSeq(rng, 20+rng.Intn(40), 3))
	}
	qs = append(qs, qs[1], qs[3], qs[1]) // duplicates
	const eps = 0.25

	outs, stats, err := db.SearchBatchCtx(context.Background(), qs, eps)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(qs) || len(stats) != len(qs) {
		t.Fatalf("batch returned %d/%d entries for %d queries", len(outs), len(stats), len(qs))
	}
	for i, q := range qs {
		want, wst, err := db.Search(q, eps)
		if err != nil {
			t.Fatal(err)
		}
		got := outs[i]
		if len(got) != len(want) {
			t.Fatalf("query %d: batch %d matches, serial %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j].SeqID != want[j].SeqID || !almostEqual(got[j].MinDnorm, want[j].MinDnorm) {
				t.Fatalf("query %d: match %d differs", i, j)
			}
			if got[j].Interval.NumPoints() != want[j].Interval.NumPoints() {
				t.Fatalf("query %d: interval %d differs", i, j)
			}
		}
		if stats[i].CandidatesDmbr != wst.CandidatesDmbr || stats[i].DnormEvals != wst.DnormEvals ||
			stats[i].IndexEntriesHit != wst.IndexEntriesHit {
			t.Fatalf("query %d: stats differ: %+v vs %+v", i, stats[i], wst)
		}
	}
	// Duplicates are flagged as served-without-compute.
	for _, i := range []int{4, 5, 6} {
		if !stats[i].CacheHit {
			t.Errorf("duplicate query %d not flagged CacheHit", i)
		}
	}
	for _, i := range []int{0, 1, 2, 3} {
		if stats[i].CacheHit {
			t.Errorf("first occurrence %d flagged CacheHit", i)
		}
	}
}

// TestSearchBatchValidation proves one bad member fails the whole batch.
func TestSearchBatchValidation(t *testing.T) {
	db := newTestDB(t, 3)
	rng := rand.New(rand.NewSource(206))
	populateWalks(t, db, 5, rng)
	good := randWalkSeq(rng, 20, 3)

	if _, _, err := db.SearchBatchCtx(context.Background(), []*Sequence{good, nil}, 0.1); err == nil {
		t.Error("nil member accepted")
	}
	if _, _, err := db.SearchBatchCtx(context.Background(), []*Sequence{good, seqFromCoords(1)}, 0.1); err == nil {
		t.Error("wrong-dim member accepted")
	}
	if _, _, err := db.SearchBatchCtx(context.Background(), []*Sequence{good}, -1); err == nil {
		t.Error("negative eps accepted")
	}
	outs, stats, err := db.SearchBatchCtx(context.Background(), nil, 0.1)
	if err != nil || outs != nil || stats != nil {
		t.Errorf("empty batch: %v %v %v", outs, stats, err)
	}
}

// TestSearchBatchCtxCanceled proves a fired context aborts the batch.
func TestSearchBatchCtxCanceled(t *testing.T) {
	db, q := ctxCorpus(t, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := db.SearchBatchCtx(ctx, []*Sequence{q}, 0.2); !errors.Is(err, context.Canceled) {
		t.Fatalf("SearchBatchCtx on canceled ctx: err = %v, want context.Canceled", err)
	}
}

// TestConcurrentCacheInvalidation interleaves writers and cached readers:
// a writer keeps adding exact copies of the query while readers run
// Search and SearchBatch. Any reader observing the completed-adds counter
// at c must find at least c copies — a smaller result would be a stale
// cache hit surviving a write. Run with -race.
func TestConcurrentCacheInvalidation(t *testing.T) {
	t.Run("gdsf/mbr", concurrentInvalidationSoak)
}

func concurrentInvalidationSoak(t *testing.T) {
	db := newTestDB(t, 3)
	rng := rand.New(rand.NewSource(208))
	populateWalks(t, db, 10, rng)
	db.SetCache(cache.New(cache.Config{}))
	q := randWalkSeq(rng, 24, 3)

	var added atomic.Int64
	const copies = 12
	var wg sync.WaitGroup
	errs := make(chan error, 16)

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < copies; i++ {
			cp, err := NewSequence("copy", append([]geom.Point(nil), q.Points...))
			if err != nil {
				errs <- err
				return
			}
			if _, err := db.Add(cp); err != nil {
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
			floor := added.Load() // these adds happened-before this search
			var ms []Match
			var err error
			if batch {
				var outs [][]Match
				outs, _, err = db.SearchBatchCtx(context.Background(), []*Sequence{q}, 0.05)
				if err == nil {
					ms = outs[0]
				}
			} else {
				ms, _, err = db.Search(q, 0.05)
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
				errs <- errStale{floor: floor, found: found}
				return
			}
		}
	}
	for g := 0; g < 3; g++ {
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

type errStale struct{ floor, found int64 }

func (e errStale) Error() string {
	return fmt.Sprintf("stale cache hit: %d copies found, %d adds completed before the search",
		e.found, e.floor)
}

// TestCachePutChargesRetainedCapacity: the byte cap counts what an entry
// keeps alive. An answer whose list has spare capacity is charged for the
// whole array, and after a run of searches the cache's byte count covers
// every list and every range array reachable from its entries.
func TestCachePutChargesRetainedCapacity(t *testing.T) {
	db, rng := cachedDB(t, 200, 210)
	c := db.QueryCache()
	q := randWalkSeq(rng, 30, 3)
	roomy := make([]Match, 10, 100)
	SlotFor(c, Query{Seq: q, Eps: 0.5}, db.PartitionConfig()).Put(Result{Matches: roomy})
	if got, floor := c.Bytes(), int64(64*cap(roomy)); got < floor {
		t.Fatalf("a 10-match answer in a 100-match array is charged %d bytes, retains >= %d", got, floor)
	}
	c.Purge()

	var reachable int64
	for i := 0; i < 20; i++ {
		res, err := db.Do(context.Background(), Query{Seq: randWalkSeq(rng, 20+rng.Intn(30), 3), Eps: 0.2 + 0.02*float64(i)})
		if err != nil {
			t.Fatal(err)
		}
		reachable += int64(64 * cap(res.Matches))
		for _, m := range res.Matches {
			reachable += int64(16 * cap(m.Interval.Ranges()))
		}
	}
	if c.Len() != 20 || reachable < 20*64*100 {
		t.Fatalf("%d entries reaching %d bytes; the test needs 20 answers of >= 100 matches", c.Len(), reachable)
	}
	if got := c.Bytes(); got < reachable {
		t.Fatalf("20 cached answers are charged %d bytes and retain %d", got, reachable)
	}
}
