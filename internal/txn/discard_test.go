package txn

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/pager"
)

// Tests for the commit failure paths: a group whose fsync fails must
// leave the committer exactly as if the group never existed — mirror
// maps, LSN sequence, and published state all rolled back — and commits
// the record format cannot carry must be rejected up front with a clear
// error instead of being acknowledged as undecodable bytes.

// sabotageLog closes the WAL's file handle out from under the database:
// the next append fails, and the cleanup truncate fails too, so the
// group is discarded and the database wedges.
func sabotageLog(t *testing.T, db *DB) {
	t.Helper()
	if err := db.log.Close(); err != nil {
		t.Fatalf("closing log: %v", err)
	}
}

func TestDiscardedAppendResetsMirrorMaps(t *testing.T) {
	db, err := Open(Options{Dir: t.TempDir(), Dim: 2})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	id, err := db.Add(&core.Sequence{Points: []geom.Point{{0, 0}, {1, 1}, {2, 2}}})
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	sabotageLog(t, db)
	pts := []geom.Point{{3, 3}}
	if err := db.AppendPoints(id, pts); err == nil {
		t.Fatal("AppendPoints on a broken log succeeded")
	}
	// The discarded group staged an overlay; its overlayIdx entry pointed
	// past the fresh pending state's overlays, so this second op used to
	// panic (index out of range) inside the committer. It must instead be
	// refused by the wedged database.
	if err := db.AppendPoints(id, pts); !errors.Is(err, errWedged) {
		t.Fatalf("AppendPoints after discarded group: %v, want errWedged", err)
	}
}

func TestDiscardedRemoveNotSticky(t *testing.T) {
	db, err := Open(Options{Dir: t.TempDir(), Dim: 2})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	id, err := db.Add(&core.Sequence{Points: []geom.Point{{0, 0}, {1, 1}, {2, 2}}})
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	sabotageLog(t, db)
	if err := db.Remove(id); err == nil {
		t.Fatal("Remove on a broken log succeeded")
	}
	// The remove was never committed: the sequence is still live, so the
	// next op on it must fail only because the database is wedged — a
	// leaked removedSet entry would surface as ErrUnknownSequence.
	err = db.AppendPoints(id, []geom.Point{{3, 3}})
	if errors.Is(err, core.ErrUnknownSequence) {
		t.Fatal("discarded remove still hides the sequence")
	}
	if !errors.Is(err, errWedged) {
		t.Fatalf("AppendPoints after discarded remove: %v, want errWedged", err)
	}
}

// TestDiscardedGroupRollsBackLSN drives the committer functions directly
// (no committer goroutine) so the LSN counter is observable: a discarded
// group must return its LSNs, keeping the sequence gap-free for
// handleRebase's tail arithmetic.
func TestDiscardedGroupRollsBackLSN(t *testing.T) {
	base, err := core.NewDatabase(core.Options{Dim: 2})
	if err != nil {
		t.Fatalf("NewDatabase: %v", err)
	}
	defer base.Close()
	db := newDB(base, Options{Dir: t.TempDir(), Dim: 2})
	if err := db.openLog(); err != nil {
		t.Fatalf("openLog: %v", err)
	}

	mkReq := func(ops []op) *commitReq {
		return &commitReq{ops: ops, resp: make(chan commitRes, 1), enq: time.Now()}
	}
	addOp := func() op {
		g, err := core.NewSegmented(&core.Sequence{Points: []geom.Point{{0, 0}, {1, 1}, {2, 2}}}, base.PartitionConfig())
		if err != nil {
			t.Fatalf("NewSegmented: %v", err)
		}
		return op{kind: opAdd, g: g}
	}

	ok := mkReq([]op{addOp()})
	db.processBatch([]*commitReq{ok})
	if res := <-ok.resp; res.err != nil {
		t.Fatalf("seed commit: %v", res.err)
	}
	before := db.nextLSN

	db.log.Close()
	// One request staging all three op kinds: every mirror-map mutation
	// and the request's LSN must be undone when the group is discarded.
	bad := mkReq([]op{addOp(), {kind: opAppend, id: 0, pts: []geom.Point{{3, 3}}}, {kind: opRemove, id: 0}})
	db.processBatch([]*commitReq{bad})
	if res := <-bad.resp; res.err == nil {
		t.Fatal("commit on a closed log succeeded")
	}
	if db.nextLSN != before {
		t.Fatalf("discarded group leaked LSNs: nextLSN %d, want %d", db.nextLSN, before)
	}
	if n := len(db.work.overlayIdx); n != 0 {
		t.Fatalf("discarded group leaked %d overlayIdx entries", n)
	}
	if n := len(db.work.removedSet); n != 0 {
		t.Fatalf("discarded group leaked %d removedSet entries", n)
	}
	if st := db.cur.Load(); st.deltaLen() != 1 {
		t.Fatalf("published delta length %d, want 1 (the seed add)", st.deltaLen())
	}
}

func TestRecordRoundTripManyOps(t *testing.T) {
	ops := make([]op, 70000) // above the old u16 op-count ceiling
	for i := range ops {
		ops[i] = op{kind: opRemove, id: uint32(i)}
	}
	payload := encodeRecord(42, ops, 2)
	lsn, got, err := decodeRecord(payload, 2)
	if err != nil {
		t.Fatalf("decodeRecord: %v", err)
	}
	if lsn != 42 || len(got) != len(ops) {
		t.Fatalf("round trip: lsn=%d nops=%d, want 42/%d", lsn, len(got), len(ops))
	}
	for _, i := range []int{0, 65535, 65536, len(ops) - 1} {
		if got[i].kind != opRemove || got[i].id != uint32(i) {
			t.Fatalf("op %d: kind=%c id=%d", i, got[i].kind, got[i].id)
		}
	}
}

func TestOversizedCommitRejected(t *testing.T) {
	db := newMem(t, 2)
	ops := make([]op, maxRecOps+1)
	for i := range ops {
		ops[i] = op{kind: opRemove, id: uint32(i)}
	}
	if _, err := db.commitCtx(context.Background(), ops); err == nil || !strings.Contains(err.Error(), "record limit") {
		t.Fatalf("oversized commit: %v, want op-count rejection", err)
	}
	// The rejection happened before anything was applied: the database
	// keeps working.
	if _, err := db.Add(&core.Sequence{Points: []geom.Point{{0, 0}, {1, 1}}}); err != nil {
		t.Fatalf("Add after rejected commit: %v", err)
	}
}

func TestOversizedRecordRejected(t *testing.T) {
	db, err := Open(Options{Dir: t.TempDir(), Dim: 2})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	id, err := db.Add(&core.Sequence{Points: []geom.Point{{0, 0}, {1, 1}}})
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	// Enough points that the encoded record exceeds the log's payload
	// bound; the commit must be refused before it reaches the group, so
	// it neither wedges the database nor fails other commits.
	n := pager.MaxLogRecord/16 + 1
	flat := make([]float64, 2*n)
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point(flat[2*i : 2*i+2])
	}
	if err := db.AppendPoints(id, pts); err == nil || !strings.Contains(err.Error(), "WAL record limit") {
		t.Fatalf("oversized record: %v, want size rejection", err)
	}
	if err := db.AppendPoints(id, []geom.Point{{2, 2}}); err != nil {
		t.Fatalf("AppendPoints after rejected record: %v", err)
	}
}

func TestOversizedLabelRejected(t *testing.T) {
	db := newMem(t, 2)
	s := &core.Sequence{
		Label:  strings.Repeat("x", maxLabelLen+1),
		Points: []geom.Point{{0, 0}, {1, 1}},
	}
	if _, err := db.Add(s); err == nil || !strings.Contains(err.Error(), "label") {
		t.Fatalf("oversized label: %v, want label rejection", err)
	}
}
