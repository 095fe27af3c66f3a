package txn

import (
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
	// rebase, when non-nil, makes this a checkpoint's fold-completion
	// request instead of a commit (see Checkpoint); ops is then empty.
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

// state is one immutable version of the delta. States form a chain:
// each commit publishes a new state whose slices extend the previous
// state's (append-only structural sharing — safe because only the
// committer appends, and a published state's slice headers freeze the
// visible prefix). Readers pin a state and never see it change.
type state struct {
	// epoch increments on every publish; it is the value Epoch()
	// reports, so attached query caches invalidate on every commit.
	epoch uint64
	// lastLSN is the WAL position this state corresponds to: the LSN of
	// the last record applied into it.
	lastLSN uint64
	// baseNext is the id the base would assign next — the boundary
	// between base ids (< baseNext) and delta add ids. Constant between
	// checkpoint folds.
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

// view is the per-snapshot resolved form of a state: set and map lookups
// built once per pinned snapshot (O(delta) — bounded by the checkpoint
// cadence), then shared by every query through that snapshot.
type view struct {
	st        *state
	removed   map[uint32]struct{}
	overlay   map[uint32]*core.Segmented // latest version per overlaid id
	delta     []deltaSeq                 // visible delta sequences, ascending id
	deadBase  int                        // base ids in removed (capacity hint for kNN inflation)
	liveBases int
}

// deltaSeq is one sequence a delta scan must evaluate.
type deltaSeq struct {
	id uint32
	g  *core.Segmented
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
		if id < st.baseNext {
			v.deadBase++
		}
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
	sortUint32s(overlayBase)
	for _, id := range overlayBase {
		if _, dead := v.removed[id]; dead {
			continue
		}
		v.delta = append(v.delta, deltaSeq{id: id, g: v.overlay[id]})
	}
	for i, g := range st.adds {
		id := st.baseNext + uint32(i)
		if _, dead := v.removed[id]; dead {
			continue
		}
		if ng, ok := v.overlay[id]; ok {
			g = ng
		}
		v.delta = append(v.delta, deltaSeq{id: id, g: g})
	}
	return v
}

// dropBase reports whether a base search result for id must be filtered
// out: the snapshot supersedes it (overlay), deleted it (removed), or
// never contained it (id ≥ baseNext — possible mid-fold, when the base
// already holds adds this snapshot serves from its own delta).
func (v *view) dropBase(id uint32) bool {
	if id >= v.st.baseNext {
		return true
	}
	if _, dead := v.removed[id]; dead {
		return true
	}
	_, overlaid := v.overlay[id]
	return overlaid
}

// effective returns the sequence version visible for id, or nil.
func (v *view) effective(id uint32, base *core.Database) *core.Segmented {
	if _, dead := v.removed[id]; dead {
		return nil
	}
	if g, ok := v.overlay[id]; ok {
		return g
	}
	if id < v.st.baseNext {
		return base.Segmented(id)
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
func (w *workState) effective(id uint32, base *core.Database) *core.Segmented {
	if _, dead := w.removedSet[id]; dead {
		return nil
	}
	if i, ok := w.overlayIdx[id]; ok {
		return w.st.overlays[i].g
	}
	if id < w.st.baseNext {
		return base.Segmented(id)
	}
	i := int(id - w.st.baseNext)
	if i < len(w.st.adds) {
		return w.st.adds[i]
	}
	return nil
}

// sortUint32s sorts ids ascending (insertion sort; delta-sized inputs).
func sortUint32s(xs []uint32) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
