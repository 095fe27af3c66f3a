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
// The bound arrives late unless the shards meet: a shard that refines
// deep into its own candidates before its siblings' best reach the bound
// does work one database would have pruned. So with more than one shard
// the scatter arms the bound's rendezvous (core.KNNBound.Meet): each
// shard's search, after its first ⌈k/n⌉+1 refinements, waits until every
// sibling has done the same or left, and a shard leaves when its call
// returns, whatever it returned. Waiting needs every sibling launched, so
// a kNN scatter launches all n at once.
type knnScatter struct {
	s     *ShardedDB
	q     core.Query
	bound *core.KNNBound   // the query's
	views []*core.KNNBound // per shard: what its search runs against

	// seeded counts shard launches that found the bound already finite —
	// the bound-sharing effectiveness observable at launch granularity.
	seeded, unseeded atomic.Int64

	mu  sync.Mutex
	out []core.Match // the merged top k so far, by (Dist, global id)
}

func (s *ShardedDB) newKNNScatter(q core.Query) *knnScatter {
	kn := &knnScatter{s: s, q: q, bound: core.NewKNNBound(q.K), views: make([]*core.KNNBound, len(s.shards))}
	for i := range kn.views {
		kn.views[i] = kn.bound.Searcher(uint32(i))
	}
	if len(kn.views) > 1 {
		kn.bound.Meet(len(kn.views))
	}
	return kn
}

// call is shard i's search: the query under that shard's view of the
// bound.
func (kn *knnScatter) call(ctx context.Context, i int) (core.Result, error) {
	q := kn.q
	q.Bound = kn.views[i]
	if math.IsInf(q.Bound.Load(), 1) {
		kn.unseeded.Add(1)
	} else {
		kn.seeded.Add(1)
	}
	return kn.s.shards[i].Do(ctx, q)
}

// done ends shard i's part: an answer is merged, and the shard leaves the
// rendezvous whether it answered or not.
func (kn *knnScatter) done(i int, r core.Result, err error) {
	if err == nil {
		kn.merge(i, r)
	}
	kn.views[i].Leave()
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
