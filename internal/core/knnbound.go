package core

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
)

// KNNBound is the live k-th-best distance of one kNN query, shared by
// every search that works on it — the shards of a scatter, a transaction
// layer's base and delta passes. Each
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
// searcher whose answer may yet be discarded — a transaction layer's base
// pass, whose results its delta may supersede — therefore works on a Local
// bound: it still reads every value the shared bound holds, but what it
// publishes and offers stays with it until the owner of the query has its
// answer and tightens the shared bound itself.
//
// The bound also carries the pruning account of the searches that shared
// it, so the layer that owns the query records it once (KNNCounts), and,
// once Meet arms it, the rendezvous that makes the searches of a scatter
// wait for one another after their first few refinements.
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

	// meet, set by Meet before any search starts, is the searchers'
	// rendezvous; nil when none is armed.
	meet *rendezvous
}

// rendezvous is where the searchers of one query meet once: each search
// arrives after its after-th refinement and waits until every searcher has
// arrived or left.
type rendezvous struct {
	after   int
	mu      sync.Mutex
	in      []bool        // per searcher tag: arrived or left
	pending int           // searchers neither arrived nor left
	met     chan struct{} // closed when pending reaches 0
}

// mark records that searcher tag has arrived or left; only its first mark
// counts.
func (r *rendezvous) mark(tag uint32) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.in[tag] {
		return
	}
	r.in[tag] = true
	if r.pending--; r.pending == 0 {
		close(r.met)
	}
}

// knnOffer is one pooled exact distance. A sequence is the searcher that
// holds it (the view's tag) and its id there: a sequence offered twice must
// count once, or two copies of the nearest neighbor would make the "2nd
// best" and dismiss the true one.
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
// counts straight through to b, its offers carrying the tag. One tag names
// one set of sequence ids.
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

// Meet arms b's rendezvous for the n searchers tagged 0 … n−1 (Searcher):
// a search working on one of their views — directly or through a Local
// bound made from it — arrives once it has refined m = ⌈k/n⌉+1 sequences,
// and waits there until every searcher has arrived or left (Leave), or its
// context is done. What the arrivals accepted was offered to the pool
// before they arrived, so when the wait ends the pool holds the best
// distances of every searcher's first refinements, and no search refines
// deep into its own candidates before its siblings' best have tightened
// the bound it prunes with. The wait changes what is refined, never the
// answer: refinement order does not decide membership (see knnD).
//
// A searcher that waits holds whatever its search holds, so the owner of
// the query must have every searcher launched, none of them waiting on
// another query's progress, and must Leave for a searcher whose call ends
// without arriving. Meet is called before any search starts; n < 2 or a
// bound made without a pool arms nothing.
func (b *KNNBound) Meet(n int) {
	if n < 2 || b.k == 0 {
		return
	}
	b.meet = &rendezvous{after: (b.k+n-1)/n + 1, in: make([]bool, n), pending: n, met: make(chan struct{})}
}

// meeting returns the rendezvous a search on b takes part in and the tag
// it takes part under: the innermost Searcher view's on the way up to the
// bound that was armed. It is nil for an unarmed bound and for a Local
// bound not made from a view.
func (b *KNNBound) meeting() (*rendezvous, uint32) {
	var tag uint32
	tagged := false
	for ; b != nil; b = b.parent {
		if b.view && !tagged {
			tag, tagged = b.tag, true
		}
		if b.parent == nil && tagged && b.meet != nil {
			return b.meet, tag
		}
	}
	return nil, 0
}

// meetAfter is how many refinements a search on b does before it arrives;
// 0 — never — when there is no rendezvous.
func (b *KNNBound) meetAfter() int {
	if r, _ := b.meeting(); r != nil {
		return r.after
	}
	return 0
}

// arrive marks b's searcher arrived and waits until every searcher has
// arrived or left, or ctx is done.
func (b *KNNBound) arrive(ctx context.Context) {
	r, tag := b.meeting()
	if r == nil {
		return
	}
	r.mark(tag)
	select {
	case <-r.met:
	case <-ctx.Done():
	}
}

// Leave marks b's searcher as one no sibling waits for: its call has
// ended, or it is about to block where a sibling's wait could hold it up.
// Without a rendezvous, and on a nil receiver, it does nothing.
func (b *KNNBound) Leave() {
	if r, tag := b.meeting(); r != nil {
		r.mark(tag)
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
// the call.
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
