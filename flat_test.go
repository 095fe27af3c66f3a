package mdseq_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	mdseq "repro"
	"repro/internal/core"
	"repro/internal/fractal"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/txn"
)

// flatCorpus is a Table 2-like synthetic corpus of at least minPoints
// points: fractal sequences of 200–400 points at d = 3.
func flatCorpus(t *testing.T, seed int64, minPoints int) ([]*core.Sequence, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var seqs []*core.Sequence
	n := 0
	for n < minPoints {
		s, err := fractal.Generate(rng, 200+rng.Intn(201), fractal.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		s.Label = fmt.Sprintf("f%04d", len(seqs))
		seqs = append(seqs, s)
		n += s.Len()
	}
	return seqs, n
}

// liveHeap returns the bytes of live heap objects after a full collection.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// maxBytesPerPoint is how much live heap a stored point may cost beyond
// its coordinates: the MBR columns, the index and the per-sequence headers
// amortized over the points of a sequence, with no header per point. A
// geom.Point header is 24 bytes.
const maxBytesPerPoint = 8

// mappedFlag reports whether a segment file opened mapped; Close is a
// no-op, for store.LoadSegments.
type mappedFlag bool

func (mappedFlag) Close() error { return nil }

// TestStoredPointCostsItsCoordinates holds a database's live heap to its
// coordinates plus less than maxBytesPerPoint a point: after an AddAll
// whose input sequences are then dropped — the database keeps its own
// flat copy and nothing of the input — and after a load of a v2 store,
// whose coordinates stay in the mapped file and so cost no heap at all.
// A point header per stored point, or an input kept alive beside the
// copy, each cost 24 bytes a point at d = 3.
func TestStoredPointCostsItsCoordinates(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 100 000-point corpus")
	}
	const dim = 3
	base := liveHeap()
	seqs, npoints := flatCorpus(t, 37, 100_000)
	coords := int64(npoints * dim * 8)
	dir := filepath.Join(t.TempDir(), "db")
	if err := store.Build(dir, seqs, core.DefaultPartitionConfig()); err != nil {
		t.Fatal(err)
	}
	perPoint := func(grew, onHeap int64) float64 { return float64(grew-onHeap) / float64(npoints) }

	db, err := core.NewDatabase(core.Options{Dim: dim})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddAll(seqs); err != nil {
		t.Fatal(err)
	}
	seqs = nil
	added := perPoint(liveHeap()-base, coords)
	runtime.KeepAlive(db)
	db.Close()
	db = nil

	before := liveHeap()
	loaded, err := store.LoadWith(dir, store.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	onHeap := int64(0)
	if mapped, err := store.LoadSegments(filepath.Join(dir, "segments.sg2"), func(c *store.Corpus) (mappedFlag, error) {
		return mappedFlag(c.Mapped), nil
	}); err != nil {
		t.Fatal(err)
	} else if !mapped {
		onHeap = coords // the read fallback holds the file on the heap
	}
	loadedPP := perPoint(liveHeap()-before, onHeap)
	runtime.KeepAlive(loaded)
	loaded.Close()

	t.Logf("%d points: %.1f B a point beyond the coordinates after AddAll, %.1f after a v2 load", npoints, added, loadedPP)
	if added >= maxBytesPerPoint {
		t.Errorf("AddAll retains %.1f B a point beyond the coordinates, want < %d", added, maxBytesPerPoint)
	}
	if loadedPP >= maxBytesPerPoint {
		t.Errorf("a v2 load retains %.1f B a point beyond the coordinates, want < %d", loadedPP, maxBytesPerPoint)
	}
}

// TestStoredSequencesAreFlat adds a corpus and appends to a third of it on
// every layer that holds sequences — a core database, 4 shards, a
// transactional delta, the same delta folded, a v2 store reloaded and a
// WAL replayed — and reads each sequence back as Sequences, Segmented and
// a kNN's Match.Seq give it: At, Len and Flat are what was added and
// appended, bit for bit, At's points are capped views, and no stored
// sequence keeps input-form Points.
func TestStoredSequencesAreFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	const dim = 3
	var seqs []*mdseq.Sequence
	extra := map[string][]mdseq.Point{}
	want := map[string][]float64{}
	for i := 0; i < 15; i++ {
		s := walk(rng, 1+rng.Intn(90))
		s.Label = fmt.Sprintf("w%02d", i)
		seqs = append(seqs, s)
		for j := range s.Len() {
			want[s.Label] = append(want[s.Label], s.At(j)...)
		}
		if i%3 == 0 {
			tail := walk(rng, 1+rng.Intn(20))
			extra[s.Label] = tail.Points
			for _, p := range tail.Points {
				want[s.Label] = append(want[s.Label], p...)
			}
		}
	}
	fill := func(t *testing.T, db shard.DB) {
		t.Helper()
		batch := make([]*mdseq.Sequence, len(seqs))
		for i, s := range seqs {
			batch[i] = s.Clone()
		}
		ids, err := db.AddAll(batch)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range seqs {
			if pts := extra[s.Label]; pts != nil {
				if err := db.AppendPoints(ids[i], pts); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	holds := func(t *testing.T, where string, s *mdseq.Sequence) {
		t.Helper()
		w, ok := want[s.Label]
		switch {
		case !ok:
			t.Fatalf("%s: unknown sequence %q", where, s.Label)
		case s.Points != nil:
			t.Fatalf("%s: %s keeps input-form points", where, s.Label)
		case s.Dim() != dim || s.Len()*dim != len(w) || len(s.Flat()) != len(w):
			t.Fatalf("%s: %s has %d points of dim %d (%d flat), want %d", where, s.Label, s.Len(), s.Dim(), len(s.Flat()), len(w)/dim)
		}
		for k, v := range s.Flat() {
			if math.Float64bits(v) != math.Float64bits(w[k]) {
				t.Fatalf("%s: %s Flat()[%d] = %v, want %v", where, s.Label, k, v, w[k])
			}
		}
		for i := range s.Len() {
			p := s.At(i)
			if len(p) != dim || cap(p) != dim {
				t.Fatalf("%s: %s At(%d) has len %d cap %d", where, s.Label, i, len(p), cap(p))
			}
			for k, v := range p {
				if math.Float64bits(v) != math.Float64bits(w[i*dim+k]) {
					t.Fatalf("%s: %s At(%d)[%d] = %v, want %v", where, s.Label, i, k, v, w[i*dim+k])
				}
			}
		}
	}
	check := func(t *testing.T, where string, db shard.DB) {
		t.Helper()
		stored := db.Sequences()
		if len(stored) != len(seqs) {
			t.Fatalf("%s: %d sequences, want %d", where, len(stored), len(seqs))
		}
		for _, s := range stored {
			holds(t, where+" Sequences", s)
			g := db.Segmented(s.ID)
			if g == nil {
				t.Fatalf("%s: Segmented(%d) of %s is nil", where, s.ID, s.Label)
			}
			holds(t, where+" Segmented", g.Seq)
			if f := g.Seq.Flat(); &f[0] != &g.Flat[0] {
				t.Fatalf("%s: %s is not a view of its Segmented's Flat", where, s.Label)
			}
		}
		res, err := db.Do(context.Background(), mdseq.Query{Seq: seqs[4], Kind: mdseq.KNN, K: len(seqs)})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) != len(seqs) {
			t.Fatalf("%s: kNN returned %d of %d", where, len(res.Matches), len(seqs))
		}
		for _, m := range res.Matches {
			holds(t, where+" Match.Seq", m.Seq)
		}
	}

	cdb, err := mdseq.Open(mdseq.Options{Dim: dim})
	if err != nil {
		t.Fatal(err)
	}
	defer cdb.Close()
	fill(t, cdb)
	check(t, "core", cdb)

	sdb, err := mdseq.OpenSharded(mdseq.Options{Dim: dim}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sdb.Close()
	fill(t, sdb)
	check(t, "4 shards", sdb)

	tdb, err := txn.Open(txn.Options{Dim: dim, Dir: t.TempDir(), NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer tdb.Close()
	fill(t, tdb)
	if st := tdb.Stats(); st.DeltaAdds != len(seqs) {
		t.Fatalf("txn delta holds %d adds, want %d", st.DeltaAdds, len(seqs))
	}
	check(t, "txn delta", tdb)
	if err := tdb.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	check(t, "txn folded", tdb)

	dir := filepath.Join(t.TempDir(), "v2")
	if err := mdseq.Save(cdb, dir); err != nil {
		t.Fatal(err)
	}
	ldb, err := mdseq.Load(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer ldb.Close()
	check(t, "v2 reload", ldb)

	walDir := t.TempDir()
	wdb, err := txn.Open(txn.Options{Dim: dim, Dir: walDir, NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, wdb)
	if err := wdb.Close(); err != nil {
		t.Fatal(err)
	}
	rdb, err := txn.Open(txn.Options{Dim: dim, Dir: walDir, NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	if st := rdb.Stats(); st.RecoveredRecords == 0 {
		t.Fatal("reopen replayed no WAL record")
	}
	check(t, "WAL replay", rdb)
}
