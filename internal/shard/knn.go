package shard

import (
	"context"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// knnScatter is what a KNN query adds to the scatter: the live bound its
// shards share, and the merge of their lists as they come in.
//
// Every shard computes its local top k concurrently, and all of them prune
// against one live k-th-best distance (core.KNNBound): each re-reads it
// before every refinement and tightens it with its own k-th best, and the
// merge tightens it with the merged k-th best, so the scatter refines about
// as few sequences as one database holding everything would. Every
// published value is the k-th best of k sequences that exist, so it never
// drops below the final global k-th distance, and shards dismiss only what
// lies strictly above it: no neighbor — and no sequence tied with the k-th
// — is lost. The bound holds distances under the query's own metric; under
// MetricDTW the shard-local pruning it drives uses DTW's envelope bounds,
// never D's Dnorm bound.
//
// Retried and hedged attempts of one shard share that shard's view of the
// bound. With Policy.AllowPartial a shard that exhausts its attempts is
// skipped, and because a skipped shard's k sequences never reach the
// answer, its k-th best must not prune the others: each shard then
// publishes to a bound of its own and reads the shared one, which only the
// merge tightens, with answers it has merged.
type knnScatter struct {
	s     *ShardedDB
	q     core.Query
	bound *core.KNNBound   // the query's
	views []*core.KNNBound // per shard: what its attempts search against

	// seeded counts shard launches that found the bound already finite —
	// the bound-sharing effectiveness observable at launch granularity.
	seeded, unseeded atomic.Int64

	mu  sync.Mutex
	out []core.Match // the merged top k so far, by (Dist, global id)
}

func (s *ShardedDB) newKNNScatter(q core.Query, pol Policy) *knnScatter {
	kn := &knnScatter{s: s, q: q, bound: core.NewKNNBound(q.K), views: make([]*core.KNNBound, len(s.shards))}
	for i := range kn.views {
		if pol.AllowPartial {
			kn.views[i] = kn.bound.Local()
		} else {
			kn.views[i] = kn.bound.Searcher(uint32(i))
		}
	}
	return kn
}

// call is one attempt at shard i: the query under that shard's view of the
// bound.
func (kn *knnScatter) call(ctx context.Context, i int, b Backend) (core.Result, error) {
	q := kn.q
	q.Bound = kn.views[i]
	if math.IsInf(q.Bound.Load(), 1) {
		kn.unseeded.Add(1)
	} else {
		kn.seeded.Add(1)
	}
	return b.Do(ctx, q)
}

// merge folds shard i's answer into the merged list under global ids and
// the one tie rule (core.InsertKNN), then publishes the merged k-th best to
// the shards still refining.
func (kn *knnScatter) merge(i int, r core.Result) {
	kn.mu.Lock()
	defer kn.mu.Unlock()
	k := kn.q.K
	for _, m := range r.Matches {
		m.SeqID = kn.s.globalID(i, m.SeqID)
		kn.out = core.InsertKNN(kn.out, m, k)
	}
	if len(kn.out) == k {
		kn.bound.Tighten(kn.out[k-1].Dist)
	}
}
