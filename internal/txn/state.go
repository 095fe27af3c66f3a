package txn

import (
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
)

// Operation kinds, also the WAL op codes.
const (
	opAdd    = byte('A')
	opAppend = byte('P')
	opRemove = byte('R')
)

// op is one staged write operation.
type op struct {
	kind byte
	g    *core.Segmented // opAdd: pre-partitioned sequence
	id   uint32          // opAppend, opRemove
	pts  []geom.Point    // opAppend
	// seqFromLog carries a decoded (not yet partitioned) add during WAL
	// replay; the recovery path partitions it before applying.
	seqFromLog *core.Sequence
}

// commitReq is one atomic batch of ops awaiting the committer.
type commitReq struct {
	ops  []op
	resp chan commitRes
	enq  time.Time
	// res is staged by the committer while the request waits for its
	// group's fsync; sent on resp at acknowledgment time.
	res commitRes
	// rebase, when non-nil, makes this a checkpoint's swap request
	// instead of a commit (see Checkpoint); ops is then empty.
	rebase *rebaseReq
}

// commitRes is the committer's acknowledgment.
type commitRes struct {
	err     error
	firstID uint32 // id of the request's first opAdd (adds get consecutive ids)
	// group is how many requests shared this request's fsync — the WAL
	// group-commit batch size, surfaced as a span attribute so a slow
	// write can be attributed to (or exonerated from) group formation.
	group int
}

// state is one immutable version of the corpus: a base and the delta over
// it. States form a chain: each commit publishes a new state whose slices
// extend the previous state's (append-only structural sharing — safe
// because only the committer appends, and a published state's slice
// headers freeze the visible prefix), and a fold publishes one over the
// base it rebuilt. Readers pin a state and never see it change.
type state struct {
	// epoch increments on every publish; it is the value Epoch()
	// reports, so attached query caches invalidate on every commit.
	epoch uint64
	// lastLSN is the WAL position this state corresponds to: the LSN of
	// the last record applied into it.
	lastLSN uint64
	// base is the indexed database the delta is over. Nothing writes it
	// once a state holds it; a fold builds the next one beside it.
	base *core.Database
	// baseNext is the base's directory length — the boundary between
	// base ids (< baseNext) and delta add ids.
	baseNext uint32
	// live is the number of visible sequences (base + adds − removed).
	live int
	// adds are sequences committed since the last fold; adds[i] has id
	// baseNext + i. A later overlay or removal for that id supersedes
	// the entry here.
	adds []*core.Segmented
	// overlays are replacement versions (from AppendPoints) in commit
	// order; the last entry for an id wins. Ids may be base ids or add
	// ids. Removal is terminal, so the removed set overrides overlays
	// regardless of order.
	overlays []overlayEntry
	// removed lists removed ids (base or add), in commit order.
	removed []uint32

	// v is the state's resolved lookup form, built on first use (view).
	viewOnce sync.Once
	v        *view
}

// overlayEntry is one committed replacement version.
type overlayEntry struct {
	id uint32
	g  *core.Segmented
}

// deltaLen reports how many committed mutations the state carries — the
// size of the per-query delta scan and the work a checkpoint will fold.
func (st *state) deltaLen() int {
	return len(st.adds) + len(st.overlays) + len(st.removed)
}

// view is the resolved form of a state: set and map lookups built once
// per published state (O(delta) — bounded by the checkpoint cadence), on
// first use, then shared by every snapshot pinned to that state and by the
// fold that cuts at it. A published state never changes, so neither does
// its view.
type view struct {
	st      *state
	removed map[uint32]struct{}
	overlay map[uint32]*core.Segmented // latest version per overlaid id
	// ids and segs are the visible delta sequences, ascending id: segs[i]
	// is sequence ids[i] — what the delta pass (core.Unindexed) reads.
	ids  []uint32
	segs []*core.Segmented
	// drop lists the base ids the state supersedes or removed, ascending
	// and without repeats: what mergeByID walks beside a base answer.
	drop []uint32
}

// view returns st's lookup form, building it on the first call. Only a
// published state may be viewed: the committer's pending one still grows.
func (st *state) view() *view {
	st.viewOnce.Do(func() { st.v = buildView(st) })
	return st.v
}

// buildView resolves st into lookup form.
func buildView(st *state) *view {
	v := &view{st: st}
	if st.deltaLen() == 0 {
		return v
	}
	v.removed = make(map[uint32]struct{}, len(st.removed))
	for _, id := range st.removed {
		v.removed[id] = struct{}{}
	}
	v.overlay = make(map[uint32]*core.Segmented, len(st.overlays))
	overlayBase := make([]uint32, 0, len(st.overlays))
	for _, e := range st.overlays {
		if _, seen := v.overlay[e.id]; !seen && e.id < st.baseNext {
			overlayBase = append(overlayBase, e.id)
		}
		v.overlay[e.id] = e.g
	}
	// Visible delta, ascending id: overlaid base sequences first (base
	// ids < any add id), then adds — skipping removed ids either way.
	slices.Sort(overlayBase)
	v.drop = slices.Clone(overlayBase)
	for _, id := range st.removed {
		if id < st.baseNext {
			v.drop = append(v.drop, id)
		}
	}
	slices.Sort(v.drop)
	v.drop = slices.Compact(v.drop)
	for _, id := range overlayBase {
		if _, dead := v.removed[id]; dead {
			continue
		}
		v.ids, v.segs = append(v.ids, id), append(v.segs, v.overlay[id])
	}
	for i, g := range st.adds {
		id := st.baseNext + uint32(i)
		if _, dead := v.removed[id]; dead {
			continue
		}
		if ng, ok := v.overlay[id]; ok {
			g = ng
		}
		v.ids, v.segs = append(v.ids, id), append(v.segs, g)
	}
	return v
}

// dropBase reports whether a base search result for id must be filtered
// out: the snapshot supersedes it (overlay) or deleted it (removed). For
// answers in another order than id's; mergeByID walks the list instead.
func (v *view) dropBase(id uint32) bool {
	_, found := slices.BinarySearch(v.drop, id)
	return found
}

// effective returns the sequence version visible for id, or nil.
func (v *view) effective(id uint32) *core.Segmented {
	if _, dead := v.removed[id]; dead {
		return nil
	}
	if g, ok := v.overlay[id]; ok {
		return g
	}
	if id < v.st.baseNext {
		return v.st.base.Segmented(id)
	}
	i := int(id - v.st.baseNext)
	if i < len(v.st.adds) {
		return v.st.adds[i]
	}
	return nil
}

// workState is the committer's mutable mirror of the latest state:
// effective-version lookups in O(1) for validating and applying ops.
// Only the committer goroutine touches it.
type workState struct {
	st         *state
	overlayIdx map[uint32]int // id → index in st.overlays of latest version
	removedSet map[uint32]struct{}
}

// reset rebuilds the mirror from st (after open, rebase, or an apply
// error that abandoned a half-applied request).
func (w *workState) reset(st *state) {
	w.st = st
	w.overlayIdx = make(map[uint32]int, len(st.overlays))
	for i, e := range st.overlays {
		w.overlayIdx[e.id] = i
	}
	w.removedSet = make(map[uint32]struct{}, len(st.removed))
	for _, id := range st.removed {
		w.removedSet[id] = struct{}{}
	}
}

// effective returns the visible version of id in the working state, or
// nil (removed or never existed).
func (w *workState) effective(id uint32) *core.Segmented {
	if _, dead := w.removedSet[id]; dead {
		return nil
	}
	if i, ok := w.overlayIdx[id]; ok {
		return w.st.overlays[i].g
	}
	if id < w.st.baseNext {
		return w.st.base.Segmented(id)
	}
	i := int(id - w.st.baseNext)
	if i < len(w.st.adds) {
		return w.st.adds[i]
	}
	return nil
}
