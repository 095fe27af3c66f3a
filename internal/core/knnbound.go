package core

import (
	"math"
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
// The argument needs those k sequences to reach the final answer. A
// searcher whose answer may yet be discarded — a shard a partial scatter is
// allowed to skip — therefore works on a Local bound: it still reads every
// value the shared bound holds, but what it publishes stays with it until
// the owner of the query has its answer and tightens the shared bound
// itself.
//
// The bound also carries the pruning account of the searches that shared
// it, so the layer that owns the query records it once (KNNCounts).
type KNNBound struct {
	// parent, when set, is read through by Load and receives the counts;
	// Tighten never reaches it (see Local).
	parent *KNNBound

	// gap is Float64bits(+Inf) − Float64bits(bound): nonnegative floats
	// order like their bit patterns, so a larger gap is a tighter bound
	// and the zero value is +Inf.
	gap atomic.Uint64

	candidates, refined, envPruned, keoghPruned atomic.Int64
}

var infBits = math.Float64bits(math.Inf(1))

// Local returns a bound that reads through to b — its Load is the smaller
// of b's value and its own — while values tightened on it stay its own.
// Counts added to it go to b. A nil receiver gives a plain fresh bound.
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
	g := infBits - math.Float64bits(d)
	for {
		cur := b.gap.Load()
		if g <= cur || b.gap.CompareAndSwap(cur, g) {
			return
		}
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
