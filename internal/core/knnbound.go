package core

import (
	"math"
	"sync"
	"sync/atomic"
)

// KNNBound is the live k-th-best distance of one kNN query, shared by
// every search that works on it — the shards of a scatter, their retried
// and hedged attempts, a transaction layer's base and delta passes. Each
// search re-reads it before every refinement and skips whatever its lower
// bounds place strictly above it, and tightens it whenever its own k-th
// best improves, so all of them prune like one database. A nil *KNNBound
// means unbounded; the zero value starts at +Inf.
//
// Publishing a node's own k-th best is always valid: k sequences at or
// below that distance exist, so the global k-th best is no larger, and a
// sequence strictly above it cannot be in the global top k. Pruning
// everywhere is strict (>), so a sequence tied with the bound is still
// refined and returned, and ties are settled where the lists are merged.
//
// A bound made by NewKNNBound also pools: every exact distance a search
// accepts is offered to it with the sequence's identity, it keeps the k
// smallest over distinct sequences from all searchers, and tightens itself
// to the k-th as soon as k exist anywhere — the same argument, with the k
// sequences drawn from several searches instead of one.
//
// Both need those k sequences to be in the set the final answer is chosen
// from; whatever a search publishes or offers must be certain to be. A
// searcher whose answer may yet be discarded — a shard a partial scatter is
// allowed to skip, a transaction layer's base pass whose results its delta
// may supersede — therefore works on a Local bound: it still reads every
// value the shared bound holds, but what it publishes and offers stays with
// it until the owner of the query has its answer and tightens the shared
// bound itself.
//
// The bound also carries the pruning account of the searches that shared
// it, so the layer that owns the query records it once (KNNCounts).
type KNNBound struct {
	// parent, when set, is read through by Load and receives the counts.
	// Tighten and Offer reach it from a Searcher view, under the view's
	// tag, and never from a Local bound.
	parent *KNNBound
	view   bool
	tag    uint32

	// gap is Float64bits(+Inf) − Float64bits(bound): nonnegative floats
	// order like their bit patterns, so a larger gap is a tighter bound
	// and the zero value is +Inf.
	gap atomic.Uint64

	candidates, refined, envPruned, keoghPruned atomic.Int64

	// The pool: the at most k smallest offers of distinct sequences, by
	// distance. k is 0 — no pool, offers ignored — unless NewKNNBound set it.
	k    int
	mu   sync.Mutex
	pool []knnOffer
}

// knnOffer is one pooled exact distance. A sequence is the searcher that
// holds it (the view's tag) and its id there: two attempts of one searcher
// offering the same sequence must count once, or two copies of the nearest
// neighbor would make the "2nd best" and dismiss the true one.
type knnOffer struct {
	dist    float64
	tag, id uint32
}

var infBits = math.Float64bits(math.Inf(1))

// NewKNNBound returns a bound that pools offers for a k-nearest query. The
// pool grows with what is offered; k is whatever a request said, and sizes
// nothing beyond a first few entries.
func NewKNNBound(k int) *KNNBound {
	return &KNNBound{k: k, pool: make([]knnOffer, 0, min(k, 16))}
}

// Searcher returns searcher tag's view of b: it reads, tightens, offers and
// counts straight through to b, its offers carrying the tag. Every attempt
// of one searcher — one set of sequence ids — works on the same tag.
func (b *KNNBound) Searcher(tag uint32) *KNNBound {
	return &KNNBound{parent: b, view: true, tag: tag}
}

// Local returns a bound that reads through to b — its Load is the smaller
// of b's value and its own — while values tightened on it stay its own and
// offers made to it are dropped. Counts added to it go to b. A nil receiver
// gives a plain fresh bound.
func (b *KNNBound) Local() *KNNBound {
	return &KNNBound{parent: b}
}

// Load returns the current bound, +Inf on a nil receiver.
func (b *KNNBound) Load() float64 {
	if b == nil {
		return math.Inf(1)
	}
	v := math.Float64frombits(infBits - b.gap.Load())
	if p := b.parent.Load(); p < v {
		return p
	}
	return v
}

// Tighten lowers the bound to d if d is below it (an atomic minimum); d is
// a k-th-best distance, so nonnegative. On a Local bound only the local
// value moves. A nil receiver ignores the call.
func (b *KNNBound) Tighten(d float64) {
	if b == nil {
		return
	}
	if b.view {
		b.parent.Tighten(d)
		return
	}
	g := infBits - math.Float64bits(d)
	for {
		cur := b.gap.Load()
		if g <= cur || b.gap.CompareAndSwap(cur, g) {
			return
		}
	}
}

// Offer hands the pool the exact distance d of sequence id, which the
// caller has accepted into the answer it will return (see the proviso
// above). Only a bound made by NewKNNBound, reached directly or through a
// Searcher view, keeps it; nil, the zero value and a Local bound ignore the
// call, and the search's own k-th best (Tighten) is then all that is
// published. An offer that cannot lower the bound — the common one — costs
// a load and no lock.
func (b *KNNBound) Offer(id uint32, d float64) {
	var tag uint32
	if b != nil && b.view {
		tag, b = b.tag, b.parent
	}
	if b == nil || b.k == 0 || !(d < b.Load()) {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	pos := len(b.pool)
	for i, o := range b.pool {
		if o.tag == tag && o.id == id {
			return
		}
		if pos == len(b.pool) && o.dist > d {
			pos = i
		}
	}
	if len(b.pool) < b.k {
		b.pool = append(b.pool, knnOffer{})
	} else if pos == len(b.pool) {
		return // the pool filled up since the load
	}
	copy(b.pool[pos+1:], b.pool[pos:])
	b.pool[pos] = knnOffer{dist: d, tag: tag, id: id}
	if len(b.pool) == b.k {
		b.Tighten(b.pool[b.k-1].dist)
	}
}

// KNNCounts is the pruning account of a kNN query: how many sequences
// entered the refinement order, how many reached the exact distance, and —
// under DTW — how many the envelope index bound and LB_Keogh dismissed.
type KNNCounts struct {
	Candidates  int // sequences ranked by their lower bound
	Refined     int // exact distances computed
	EnvPruned   int // DTW: dismissed by the envelope index bound
	KeoghPruned int // DTW: dismissed by LB_Keogh
}

// AddCounts adds one completed search's account; a nil receiver ignores
// the call. An attempt that loses a hedged race but still finishes adds
// its work too — it was done.
func (b *KNNBound) AddCounts(c KNNCounts) {
	if b == nil {
		return
	}
	if b.parent != nil {
		b.parent.AddCounts(c)
		return
	}
	b.candidates.Add(int64(c.Candidates))
	b.refined.Add(int64(c.Refined))
	b.envPruned.Add(int64(c.EnvPruned))
	b.keoghPruned.Add(int64(c.KeoghPruned))
}

// Counts returns the account added so far.
func (b *KNNBound) Counts() KNNCounts {
	return KNNCounts{
		Candidates:  int(b.candidates.Load()),
		Refined:     int(b.refined.Load()),
		EnvPruned:   int(b.envPruned.Load()),
		KeoghPruned: int(b.keoghPruned.Load()),
	}
}
