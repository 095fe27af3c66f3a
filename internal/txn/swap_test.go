package txn

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
)

// TestCacheAcrossFoldSwap turns the query cache on and queries from
// snapshots pinned before a fold, during it and after it, while the fold
// moves the cache from the base it replaces to the new one. Each round
// adds, for every query, a copy of it — a match at any threshold — and
// removes the copy the round before added, so every fold changes every
// base answer: an old-base answer stored across the swap, or a new-base
// entry served to an old snapshot, would be wrong. The queries are long,
// so the cache key a query computes between loading the cache and taking
// its write-sequence snapshot often spans the swap, and the readers ask
// mostly cached queries, so most of their time is spent there. Every
// answer a snapshot gives must equal that snapshot's scan, and after each
// fold every query on a fresh snapshot must equal the scan.
func TestCacheAcrossFoldSwap(t *testing.T) {
	const dim, rounds, readers, eps, k = 2, 24, 3, 0.05, 3
	ctx := context.Background()
	rng := rand.New(rand.NewSource(41))
	db := newMem(t, dim)
	db.SetCache(cache.New(cache.Config{}))
	for i := 0; i < 8; i++ {
		if _, err := db.Add(walkSeq(rng, dim, 20+rng.Intn(40))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	queries := make([]*core.Sequence, 4)
	for i := range queries {
		queries[i] = walkSeq(rng, dim, 1000)
	}
	byID := func(ms []core.Match) string {
		var b strings.Builder
		for _, m := range ms {
			fmt.Fprintf(&b, "%d:%x,", m.SeqID, math.Float64bits(m.Dist))
		}
		return b.String()
	}
	// ask is s's answer to query qi — the exact range under D at eps and
	// the kNN at k — in one string.
	var hits atomic.Int64
	ask := func(s *Snap, qi int) (string, error) {
		within, err := s.Do(ctx, core.Query{Seq: queries[qi], Eps: eps, Metric: core.MetricD{}})
		if err != nil {
			return "", err
		}
		knn, err := s.Do(ctx, core.Query{Seq: queries[qi], Kind: core.KNN, K: k})
		if err != nil {
			return "", err
		}
		if within.Stats.CacheHit {
			hits.Add(1)
		}
		return byID(within.Matches) + " | " + byID(knn.Matches), nil
	}
	// scanned is ask's answer for every query from s's own scan.
	scanned := func(s *Snap) []string {
		want := make([]string, len(queries))
		for qi, q := range queries {
			res, err := s.Do(ctx, core.Query{Seq: q, Kind: core.Scan, Eps: math.MaxFloat64, Metric: core.MetricD{}})
			if err != nil {
				t.Fatal(err)
			}
			var within []core.Match
			for _, m := range res.Matches {
				if m.Dist <= eps {
					within = append(within, m)
				}
			}
			slices.SortFunc(res.Matches, func(a, b core.Match) int {
				return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.SeqID, b.SeqID))
			})
			want[qi] = byID(within) + " | " + byID(res.Matches[:min(k, len(res.Matches))])
		}
		return want
	}

	var copies []uint32
	for round := 0; round < rounds; round++ {
		before := db.Acquire() // pinned before the round's commits
		wantBefore := scanned(before)
		var next []uint32
		for _, q := range queries {
			id, err := db.Add(clonePoints(q))
			if err != nil {
				t.Fatal(err)
			}
			next = append(next, id)
		}
		for _, id := range copies {
			if err := db.Remove(id); err != nil {
				t.Fatal(err)
			}
		}
		copies = next
		pinned := db.Acquire() // pinned after them, before the fold
		// The fold changes no visible content: every snapshot but before
		// answers as pinned does.
		want := scanned(pinned)

		var stop, folded atomic.Bool
		var wg, started sync.WaitGroup
		errs := make(chan error, readers)
		for r := 0; r < readers; r++ {
			wg.Add(1)
			started.Add(1)
			go func(r int) {
				defer wg.Done()
				for i := 0; !stop.Load(); i++ {
					if i == 4 {
						started.Done()
					}
					qi := (i + r) % len(queries)
					s, w := pinned, want[qi]
					switch i % 4 {
					case 0:
						s, w = before, wantBefore[qi]
					case 1, 2: // a fresh snapshot: during the fold, or after it
						s = db.Acquire()
					}
					got, err := ask(s, qi)
					if s != pinned && s != before {
						s.Release()
					}
					if err == nil && got != w {
						err = fmt.Errorf("epoch %d query %d:\n got %s\nscan %s", s.Epoch(), qi, got, w)
					}
					if err != nil {
						if i < 4 {
							started.Done()
						}
						errs <- fmt.Errorf("reader %d (fold done %v): %w", r, folded.Load(), err)
						return
					}
				}
			}(r)
		}
		started.Wait() // the fold runs beside readers already asking
		err := db.Checkpoint()
		folded.Store(true)
		stop.Store(true)
		wg.Wait()
		before.Release()
		pinned.Release()
		if err != nil {
			t.Fatal(err)
		}
		close(errs)
		for err := range errs {
			t.Fatalf("round %d: %v", round, err)
		}
		after := db.Acquire()
		if got := scanned(after); !slices.Equal(got, want) {
			t.Fatalf("round %d: the fold changed the scan:\n got %q\nwant %q", round, got, want)
		}
		for qi := range queries {
			got, err := ask(after, qi)
			if err != nil {
				t.Fatal(err)
			}
			if got != want[qi] {
				t.Fatalf("round %d query %d on a fresh snapshot:\n got %s\nscan %s", round, qi, got, want[qi])
			}
		}
		after.Release()
	}
	if hits.Load() == 0 {
		t.Fatal("the cache served no hit: the test no longer exercises it")
	}
}
