package txn

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/shard"
)

// The transaction layer is a drop-in shard.DB, so every serving layer
// (server, CLI, sharded scatter-gather) can sit on top of it unchanged.
var _ shard.DB = (*DB)(nil)

func randSeq(rng *rand.Rand, dim, n int) *core.Sequence {
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, dim)
		for d := range p {
			p[d] = rng.Float64() * 10
		}
		pts[i] = p
	}
	return &core.Sequence{Points: pts}
}

func clonePoints(s *core.Sequence) *core.Sequence {
	pts := make([]geom.Point, len(s.Points))
	for i, p := range s.Points {
		pts[i] = append(geom.Point(nil), p...)
	}
	return &core.Sequence{Points: pts}
}

func newMem(t *testing.T, dim int) *DB {
	t.Helper()
	base, err := core.NewDatabase(core.Options{Dim: dim})
	if err != nil {
		t.Fatalf("NewDatabase: %v", err)
	}
	db, err := Wrap(base, Options{})
	if err != nil {
		t.Fatalf("Wrap: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func newRef(t *testing.T, dim int) *core.Database {
	t.Helper()
	ref, err := core.NewDatabase(core.Options{Dim: dim})
	if err != nil {
		t.Fatalf("NewDatabase: %v", err)
	}
	t.Cleanup(func() { ref.Close() })
	return ref
}

// doer is the one query entry point, shared by *DB, *Snap and
// *core.Database.
type doer interface {
	Do(context.Context, core.Query) (core.Result, error)
}

// searchOn is the paper's range search on d.
func searchOn(d doer, q *core.Sequence, eps float64) ([]core.Match, core.SearchStats, error) {
	res, err := d.Do(context.Background(), core.Query{Seq: q, Eps: eps})
	return res.Matches, res.Stats, err
}

// knnBounded is a KNN query under m (nil: D) against a shared bound.
func knnBounded(ctx context.Context, d doer, q *core.Sequence, k int, bound *core.KNNBound, m core.Metric) ([]core.Match, error) {
	res, err := d.Do(ctx, core.Query{Seq: q, Kind: core.KNN, K: k, Bound: bound, Metric: m})
	return res.Matches, err
}

// scanMetric is the exhaustive scan under m: the oracle.
func scanMetric(d doer, q *core.Sequence, eps float64, m core.Metric) ([]core.Match, error) {
	res, err := d.Do(context.Background(), core.Query{Seq: q, Kind: core.Scan, Eps: eps, Metric: m})
	return res.Matches, err
}

// searcher is the read surface shared by *DB, *Snap, and *core.Database,
// letting equivalence checks fingerprint any of them the same way.
type searcher interface {
	doer
	Sequences() []*core.Sequence
	Len() int
}

// fingerprint reduces a database's full visible content and search
// behavior to a string: sequence ids with lengths, range results with
// exact distances and intervals, and the scan baseline. Two databases
// with equal fingerprints answer these queries byte-identically.
func fingerprint(t *testing.T, db searcher, queries []*core.Sequence, eps float64) string {
	t.Helper()
	var b strings.Builder
	fmtf := func(format string, args ...any) {
		fmt.Fprintf(&b, format, args...)
	}
	fmtf("len=%d;ids=", db.Len())
	for _, s := range db.Sequences() {
		fmtf("%d:%d,", s.ID, len(s.Points))
	}
	for qi, q := range queries {
		res, err := db.Do(context.Background(), core.Query{Seq: q, Eps: eps})
		if err != nil {
			t.Fatalf("Search q%d: %v", qi, err)
		}
		fmtf(";q%d=", qi)
		for _, m := range res.Matches {
			fmtf("%d@%x|%v,", m.SeqID, math.Float64bits(m.MinDnorm), m.Interval)
		}
		scan, err := db.Do(context.Background(), core.Query{Seq: q, Kind: core.Scan, Eps: eps})
		if err != nil {
			t.Fatalf("Scan q%d: %v", qi, err)
		}
		fmtf(";s%d=", qi)
		for _, r := range scan.Matches {
			fmtf("%d@%x|%v,", r.SeqID, math.Float64bits(r.Dist), r.Interval)
		}
	}
	return b.String()
}

func TestAddAndSearchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	db := newMem(t, 2)
	ref := newRef(t, 2)
	var queries []*core.Sequence
	for i := 0; i < 40; i++ {
		s := randSeq(rng, 2, 8+rng.Intn(20))
		id, err := db.Add(clonePoints(s))
		if err != nil {
			t.Fatalf("Add: %v", err)
		}
		rid, err := ref.Add(clonePoints(s))
		if err != nil {
			t.Fatalf("ref Add: %v", err)
		}
		if id != rid {
			t.Fatalf("id divergence: txn=%d ref=%d", id, rid)
		}
		if i%8 == 0 {
			queries = append(queries, randSeq(rng, 2, 6+rng.Intn(8)))
		}
	}
	for _, eps := range []float64{0.5, 2, 8} {
		if got, want := fingerprint(t, db, queries, eps), fingerprint(t, ref, queries, eps); got != want {
			t.Fatalf("eps=%v: txn DB diverges from reference\n got %s\nwant %s", eps, got, want)
		}
	}
}

// TestMixedOpsEquivalence drives the same randomized op stream (adds,
// appends, removes, batch txns) into the txn layer and a plain
// core.Database and requires byte-identical answers — with the delta
// unfolded, after a checkpoint fold, and after a second op wave.
func TestMixedOpsEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := newMem(t, 3)
	ref := newRef(t, 3)
	var live []uint32

	wave := func(n int) {
		for i := 0; i < n; i++ {
			switch k := rng.Intn(10); {
			case k < 5 || len(live) == 0: // add
				s := randSeq(rng, 3, 10+rng.Intn(24))
				id, err := db.Add(clonePoints(s))
				if err != nil {
					t.Fatalf("Add: %v", err)
				}
				rid, err := ref.Add(clonePoints(s))
				if err != nil || rid != id {
					t.Fatalf("ref Add: id %d vs %d err=%v", rid, id, err)
				}
				live = append(live, id)
			case k < 8: // append to a live sequence
				id := live[rng.Intn(len(live))]
				ext := randSeq(rng, 3, 1+rng.Intn(6)).Points
				if err := db.AppendPoints(id, ext); err != nil {
					t.Fatalf("AppendPoints(%d): %v", id, err)
				}
				if err := ref.AppendPoints(id, ext); err != nil {
					t.Fatalf("ref AppendPoints(%d): %v", id, err)
				}
			default: // remove
				j := rng.Intn(len(live))
				id := live[j]
				if err := db.Remove(id); err != nil {
					t.Fatalf("Remove(%d): %v", id, err)
				}
				if err := ref.Remove(id); err != nil {
					t.Fatalf("ref Remove(%d): %v", id, err)
				}
				live = append(live[:j], live[j+1:]...)
			}
		}
	}
	var queries []*core.Sequence
	for i := 0; i < 5; i++ {
		queries = append(queries, randSeq(rng, 3, 8+rng.Intn(10)))
	}
	check := func(stage string) {
		t.Helper()
		for _, eps := range []float64{1, 4} {
			if got, want := fingerprint(t, db, queries, eps), fingerprint(t, ref, queries, eps); got != want {
				t.Fatalf("%s eps=%v: diverged\n got %s\nwant %s", stage, eps, got, want)
			}
		}
	}

	wave(60)
	check("delta")
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if s := db.Stats(); s.DeltaAdds+s.DeltaOverlays+s.DeltaRemoved != 0 {
		t.Fatalf("delta not folded: %+v", s)
	}
	check("folded")
	wave(40)
	check("second wave")
}

func TestTxnBatchAtomic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := newMem(t, 2)
	a, _ := db.Add(randSeq(rng, 2, 10))
	add := func(s *core.Sequence) op {
		g, err := db.partitionFor(s)
		if err != nil {
			t.Fatal(err)
		}
		return op{kind: opAdd, g: g}
	}

	res, err := db.commitCtx(context.Background(), []op{
		add(randSeq(rng, 2, 12)),
		add(randSeq(rng, 2, 9)),
		{kind: opAppend, id: a, pts: randSeq(rng, 2, 3).Points},
	})
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	if res.firstID != a+1 {
		t.Fatalf("batch's first add id = %d, want %d", res.firstID, a+1)
	}
	if db.Len() != 3 {
		t.Fatalf("Len = %d, want 3", db.Len())
	}

	// A batch containing one invalid op must leave no trace of the rest.
	before := db.Stats()
	if _, err := db.commitCtx(context.Background(), []op{
		add(randSeq(rng, 2, 7)),
		{kind: opRemove, id: 9999},
	}); err == nil {
		t.Fatal("commit of batch with unknown-id remove succeeded")
	}
	if db.Len() != 3 {
		t.Fatalf("failed batch leaked state: Len = %d, want 3", db.Len())
	}
	after := db.Stats()
	if after.LastLSN != before.LastLSN {
		t.Fatalf("failed batch consumed LSN: %d -> %d", before.LastLSN, after.LastLSN)
	}
	// The next add still gets the next dense id.
	id, err := db.Add(randSeq(rng, 2, 5))
	if err != nil || id != a+3 {
		t.Fatalf("post-failure Add = (%d, %v), want id %d", id, err, a+3)
	}
}

func TestAddAllAtomic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	db := newMem(t, 2)
	seqs := []*core.Sequence{randSeq(rng, 2, 8), randSeq(rng, 2, 12), randSeq(rng, 2, 10)}
	ids, err := db.AddAll(seqs)
	if err != nil {
		t.Fatalf("AddAll: %v", err)
	}
	if len(ids) != 3 || ids[0] != 0 || ids[2] != 2 {
		t.Fatalf("AddAll ids = %v", ids)
	}
	// A batch with an undersized sequence fails whole.
	badSeqs := []*core.Sequence{randSeq(rng, 2, 8), {Points: []geom.Point{}}}
	if _, err := db.AddAll(badSeqs); err == nil {
		t.Fatal("AddAll with empty sequence succeeded")
	}
	if db.Len() != 3 {
		t.Fatalf("failed AddAll leaked: Len = %d, want 3", db.Len())
	}
}

func TestSnapshotIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := newMem(t, 2)
	for i := 0; i < 10; i++ {
		if _, err := db.Add(randSeq(rng, 2, 10)); err != nil {
			t.Fatal(err)
		}
	}
	q := randSeq(rng, 2, 8)
	snap := db.Acquire()
	defer snap.Release()
	epoch := snap.Epoch()
	before, _, err := searchOn(snap, q, 4)
	if err != nil {
		t.Fatal(err)
	}

	// Commit more writes: the snapshot must not move.
	for i := 0; i < 10; i++ {
		if _, err := db.Add(randSeq(rng, 2, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Remove(0); err != nil {
		t.Fatal(err)
	}
	if snap.Epoch() != epoch || snap.Len() != 10 {
		t.Fatalf("snapshot moved: epoch %d->%d len %d", epoch, snap.Epoch(), snap.Len())
	}
	after, _, err := searchOn(snap, q, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("pinned snapshot results changed: %d -> %d matches", len(before), len(after))
	}
	for i := range after {
		if after[i].SeqID != before[i].SeqID || after[i].MinDnorm != before[i].MinDnorm {
			t.Fatalf("pinned snapshot result %d changed", i)
		}
	}
	// The live view does see the writes.
	if db.Len() != 19 {
		t.Fatalf("live Len = %d, want 19", db.Len())
	}
}

// TestSnapshotsOfOneStateShareItsView: the delta's lookup form is built
// once per published state, not once per request: two snapshots of one
// state read the same *view, and a snapshot of the next state its own,
// which sees the new commit.
func TestSnapshotsOfOneStateShareItsView(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := newMem(t, 2)
	for i := 0; i < 4; i++ {
		if _, err := db.Add(randSeq(rng, 2, 10)); err != nil {
			t.Fatal(err)
		}
	}
	a, b := db.Acquire(), db.Acquire()
	defer a.Release()
	defer b.Release()
	if a.st != b.st || a.view() != b.view() {
		t.Fatal("two snapshots of one state built two views")
	}
	if len(a.view().ids) != 4 {
		t.Fatalf("the view holds %d delta sequences, want 4", len(a.view().ids))
	}
	if _, err := db.Add(randSeq(rng, 2, 10)); err != nil {
		t.Fatal(err)
	}
	c := db.Acquire()
	defer c.Release()
	if c.view() == a.view() || len(c.view().ids) != 5 || len(a.view().ids) != 4 {
		t.Fatalf("after a commit: new view shared %v, %d and %d delta sequences, want 5 and 4",
			c.view() == a.view(), len(c.view().ids), len(a.view().ids))
	}
}

// TestCheckpointKeepsPinnedSnapshots: a fold waits for no snapshot. One
// pinned before the cut keeps reading the base and delta it pinned — the
// fold built its successor beside them — and commits land meanwhile; a
// snapshot taken after the fold reads the folded base with no delta.
func TestCheckpointKeepsPinnedSnapshots(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	db := newMem(t, 2)
	var ids []uint32
	for i := 0; i < 8; i++ {
		id, err := db.Add(randSeq(rng, 2, 10))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.AppendPoints(ids[2], randSeq(rng, 2, 4).Points); err != nil {
		t.Fatal(err)
	}
	if err := db.Remove(ids[5]); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Add(randSeq(rng, 2, 10)); err != nil {
		t.Fatal(err)
	}
	queries := []*core.Sequence{randSeq(rng, 2, 8), randSeq(rng, 2, 6)}
	snap := db.Acquire()
	defer snap.Release()
	want := fingerprint(t, snap, queries, 5)
	done := make(chan error, 1)
	go func() { done <- db.Checkpoint() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Checkpoint waited for a snapshot pinned before its cut")
	}
	if got := fingerprint(t, snap, queries, 5); got != want {
		t.Fatalf("a snapshot pinned before the fold changed across it:\n got %s\nwant %s", got, want)
	}
	after := db.Acquire()
	defer after.Release()
	if after.st.deltaLen() != 0 || after.st.base == snap.st.base {
		t.Fatalf("after the fold: delta %d, base replaced %v", after.st.deltaLen(), after.st.base != snap.st.base)
	}
	if got := fingerprint(t, after, queries, 5); got != want {
		t.Fatalf("the folded base answers differently from the snapshot it folded:\n got %s\nwant %s", got, want)
	}
	if _, err := db.Add(randSeq(rng, 2, 10)); err != nil {
		t.Fatalf("commit after the fold: %v", err)
	}
	if got := fingerprint(t, snap, queries, 5); got != want {
		t.Fatal("a commit after the fold changed a snapshot pinned before it")
	}
}

func TestKNNWithDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	db := newMem(t, 2)
	ref := newRef(t, 2)
	for i := 0; i < 30; i++ {
		s := randSeq(rng, 2, 10+rng.Intn(10))
		if _, err := db.Add(clonePoints(s)); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Add(clonePoints(s)); err != nil {
			t.Fatal(err)
		}
	}
	// Leave half the corpus in the delta.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		s := randSeq(rng, 2, 10+rng.Intn(10))
		if _, err := db.Add(clonePoints(s)); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Add(clonePoints(s)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Remove(3); err != nil {
		t.Fatal(err)
	}
	if err := ref.Remove(3); err != nil {
		t.Fatal(err)
	}
	q := randSeq(rng, 2, 8)
	for _, k := range []int{1, 5, 12} {
		got, err := db.SearchKNNCtx(context.Background(), q, k)
		if err != nil {
			t.Fatalf("SearchKNN(%d): %v", k, err)
		}
		want, err := ref.SearchKNNCtx(context.Background(), q, k)
		if err != nil {
			t.Fatalf("ref SearchKNN(%d): %v", k, err)
		}
		if len(got) != len(want) {
			t.Fatalf("k=%d: %d results, want %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i].SeqID != want[i].SeqID || got[i].Dist != want[i].Dist || got[i].Offset != want[i].Offset {
				t.Fatalf("k=%d result %d: got {%d %v %d}, want {%d %v %d}", k, i,
					got[i].SeqID, got[i].Dist, got[i].Offset,
					want[i].SeqID, want[i].Dist, want[i].Offset)
			}
		}
		// Under a shared live bound — fresh, or already at the true k-th
		// distance (pruning is strict, so the k-th itself survives) — base
		// and delta prune against it, the answer is the same, and the merge
		// leaves its k-th best published.
		for _, start := range []float64{math.Inf(1), want[len(want)-1].Dist} {
			live := new(core.KNNBound)
			live.Tighten(start)
			bounded, err := knnBounded(context.Background(), db, q, k, live, nil)
			if err != nil {
				t.Fatalf("SearchKNNBoundedCtx(%d): %v", k, err)
			}
			if len(bounded) != len(want) {
				t.Fatalf("k=%d bound from %v: %d results, want %d", k, start, len(bounded), len(want))
			}
			for i := range bounded {
				if bounded[i].SeqID != want[i].SeqID || bounded[i].Dist != want[i].Dist || bounded[i].Offset != want[i].Offset {
					t.Fatalf("k=%d bound from %v result %d: got {%d %v %d}, want {%d %v %d}", k, start, i,
						bounded[i].SeqID, bounded[i].Dist, bounded[i].Offset,
						want[i].SeqID, want[i].Dist, want[i].Offset)
				}
			}
			if live.Load() != want[k-1].Dist {
				t.Fatalf("k=%d bound from %v: published %v, want the k-th best %v", k, start, live.Load(), want[k-1].Dist)
			}
			if c := live.Counts(); c.Refined == 0 || c.Candidates < c.Refined {
				t.Fatalf("k=%d: implausible pruning account %+v", k, c)
			}
		}
	}
}

// TestExplainDoesNotFold explains on a snapshot whose delta holds a
// superseded base twin, a removed id and an add: every query's "matched"
// set is Do's answer, the record covers each live id once, and the delta
// is left as it was — no checkpoint runs.
func TestExplainDoesNotFold(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	db := newMem(t, 2)
	for i := 0; i < 8; i++ {
		if _, err := db.Add(randSeq(rng, 2, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tail := randSeq(rng, 2, 6)
	if err := db.AppendPoints(2, tail.Points); err != nil { // base 2's twin
		t.Fatal(err)
	}
	gone := db.Segmented(5).Seq
	if err := db.Remove(5); err != nil {
		t.Fatal(err)
	}
	add := randSeq(rng, 2, 10)
	if _, err := db.Add(add); err != nil {
		t.Fatal(err)
	}
	before := db.Stats()
	if before.DeltaAdds != 1 || before.DeltaOverlays != 1 || before.DeltaRemoved != 1 {
		t.Fatalf("delta = %+v, want one add, one overlay, one removal", before)
	}
	queries := []*core.Sequence{
		{Points: tail.Points},                     // only the twin holds it
		{Points: gone.Slice(2, 8)},                // only the removed sequence held it
		{Points: add.Points[1:9]},                 // the add
		{Points: db.Segmented(0).Seq.Slice(0, 5)}, // a base sequence
	}
	for qi, q := range queries {
		for _, eps := range []float64{0.01, 0.5, 3} {
			ex, err := db.Explain(q, eps)
			if err != nil {
				t.Fatalf("query %d eps %g: Explain: %v", qi, eps, err)
			}
			res, err := db.Do(context.Background(), core.Query{Seq: q, Eps: eps})
			if err != nil {
				t.Fatal(err)
			}
			var ids, matched, want []uint32
			for _, c := range ex.Candidates {
				ids = append(ids, c.SeqID)
				if c.Phase == "matched" {
					matched = append(matched, c.SeqID)
				}
			}
			for _, m := range res.Matches {
				want = append(want, m.SeqID)
			}
			if !slices.Equal(matched, want) {
				t.Fatalf("query %d eps %g: Explain matched %v, Do answered %v", qi, eps, matched, want)
			}
			var live []uint32
			for _, sq := range db.Sequences() {
				live = append(live, sq.ID)
			}
			if !slices.Equal(ids, live) {
				t.Fatalf("query %d eps %g: Explain covers %v, live ids are %v", qi, eps, ids, live)
			}
		}
	}
	after := db.Stats()
	if after.Checkpoints != before.Checkpoints || after.DeltaAdds != before.DeltaAdds ||
		after.DeltaOverlays != before.DeltaOverlays || after.DeltaRemoved != before.DeltaRemoved {
		t.Fatalf("Explain changed the delta or folded it: before %+v, after %+v", before, after)
	}
}

func TestStatsAndMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	db := newMem(t, 2)
	reg := obs.NewRegistry()
	db.SetMetrics(reg)
	for i := 0; i < 12; i++ {
		if _, err := db.Add(randSeq(rng, 2, 8)); err != nil {
			t.Fatal(err)
		}
	}
	snap := db.Acquire()
	s := db.Stats()
	if s.Commits != 12 || s.Records != 12 {
		t.Fatalf("Commits/Records = %d/%d, want 12/12", s.Commits, s.Records)
	}
	if s.Epoch == 0 || s.Live != 12 || s.DeltaAdds != 12 {
		t.Fatalf("unexpected stats: %+v", s)
	}
	if s.SnapshotsPinned != 1 {
		t.Fatalf("SnapshotsPinned = %d, want 1", s.SnapshotsPinned)
	}
	if s.MeanGroupSize < 1 {
		t.Fatalf("MeanGroupSize = %v", s.MeanGroupSize)
	}
	if s.TailAge <= 0 {
		t.Fatalf("TailAge = %v, want > 0 with unfolded delta", s.TailAge)
	}
	snap.Release()
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if s := db.Stats(); s.Checkpoints != 1 || s.TailAge != 0 {
		t.Fatalf("post-checkpoint stats: checkpoints=%d tailAge=%v", s.Checkpoints, s.TailAge)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	dump := b.String()
	for _, name := range []string{
		"mdseq_wal_commit_seconds", "mdseq_wal_group_size",
		"mdseq_wal_records_total", "mdseq_wal_checkpoints_total",
		"mdseq_snapshot_pinned", "mdseq_snapshot_age_seconds",
	} {
		if !strings.Contains(dump, name) {
			t.Errorf("metrics dump missing %s", name)
		}
	}
}

func TestClosedDB(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	base, _ := core.NewDatabase(core.Options{Dim: 2})
	db, err := Wrap(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Add(randSeq(rng, 2, 8)); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := db.Add(randSeq(rng, 2, 8)); err == nil {
		t.Fatal("Add after Close succeeded")
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close is idempotent; second call returned %v", err)
	}
}

func TestWrapRejectsDurability(t *testing.T) {
	base, _ := core.NewDatabase(core.Options{Dim: 2})
	defer base.Close()
	db, err := Wrap(base, Options{Dir: t.TempDir()})
	if err == nil {
		db.Close()
		t.Fatal("Wrap accepted a Dir")
	}
}
