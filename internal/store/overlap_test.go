package store_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rtree"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/txn"
)

// damage is one way to spoil a segment file.
type damage struct {
	name string
	// nonFinite is whether the error must wrap core.ErrNonFinite.
	nonFinite bool
	spoil     func(file []byte)
}

// pointsDamage spoils the points section: a bit flip the checksum catches,
// and a NaN under a checksum rewritten to match, each in the middle of the
// section so that the check has work on both sides of it.
var pointsDamage = []damage{
	{"bit flip", false, func(file []byte) {
		start, n := store.SectionSpan(file, store.SecPoints)
		file[start+n/2] ^= 0x10
	}},
	{"NaN", true, func(file []byte) {
		start, n := store.SectionSpan(file, store.SecPoints)
		binary.LittleEndian.PutUint64(file[start+n/16*8:], math.Float64bits(math.NaN()))
		store.Reseal(file, store.SecPoints)
	}},
}

// spoilFile applies spoil to the file at path.
func spoilFile(t *testing.T, path string, spoil ...func([]byte)) {
	t.Helper()
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range spoil {
		s(file)
	}
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
}

// held reports what the process holds of the files under dir: open
// descriptors and mapped ranges, one entry each, read from /proc/self. The
// test using it is skipped where /proc/self is not there to read.
func held(t *testing.T, dir string) map[string]bool {
	t.Helper()
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	out := map[string]bool{}
	for _, e := range entries {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name())); err == nil && strings.HasPrefix(target, dir) {
			out["fd "+e.Name()+" "+target] = true
		}
	}
	raw, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skipf("no /proc/self/maps: %v", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.Contains(line, dir) {
			out["map "+line] = true
		}
	}
	return out
}

// gained returns what now holds of dir's files and before did not.
func gained(t *testing.T, dir string, before map[string]bool) []string {
	var out []string
	for h := range held(t, dir) {
		if !before[h] {
			out = append(out, h)
		}
	}
	return out
}

// snapshot is what a failed open must come back to: the goroutines and
// the holds of dir's files before it, and the index files a FileIndex open
// writes in dir, by name. (A database that opened keeps its mapping until
// the process exits, closed or not.)
type snapshot struct {
	goroutines int
	holds      map[string]bool
	index      map[string]string
}

func take(t *testing.T, dir string) snapshot {
	return snapshot{runtime.NumGoroutine(), held(t, dir), indexFiles(t, dir)}
}

// indexFiles returns the contents of dir's index files, by name.
func indexFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "index.db*"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(name)] = string(b)
	}
	return out
}

// settled waits for the goroutine count to come back to at most before, as
// goroutines that have signalled their end still take a moment to exit,
// and reports whether it did.
func settled(before int) bool {
	for range 200 {
		if runtime.NumGoroutine() <= before {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}

// staleIndex overwrites every index file in dir, so that an open that
// rebuilds or rewrites one shows: the rebuild of an unchanged corpus
// writes the same bytes again.
func staleIndex(t *testing.T, dir string) {
	t.Helper()
	for name := range indexFiles(t, dir) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("stale index"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// assertFailedClean checks an open that had to fail: an error wrapping want
// (and core.ErrNonFinite iff nonFinite), no database, and nothing left
// behind that was not there before the open: no goroutine, and no
// descriptor or mapping of dir's files. The refused store's index files
// are as they were.
func assertFailedClean(t *testing.T, what string, got any, err, want error, nonFinite bool, before snapshot, dir string) {
	t.Helper()
	if err == nil || !errors.Is(err, want) || nonFinite != errors.Is(err, core.ErrNonFinite) {
		t.Errorf("%s: err = %v, want %v (non-finite %v)", what, err, want, nonFinite)
	}
	if got != nil {
		t.Errorf("%s: returned a database beside the error %v", what, err)
	}
	if !settled(before.goroutines) {
		t.Errorf("%s: %d goroutines after the failed open, %d before", what, runtime.NumGoroutine(), before.goroutines)
	}
	if left := gained(t, dir, before.holds); len(left) > 0 {
		t.Errorf("%s: left the store held: %v", what, left)
	}
	if after := indexFiles(t, dir); !maps.Equal(after, before.index) {
		t.Errorf("%s: rewrote the refused store's index files: %d before, %d after", what, len(before.index), len(after))
	}
}

// savedSharded saves the corpus as a sharded store of n shards in a fresh
// directory and returns it.
func savedSharded(t *testing.T, n int, seqs []*core.Sequence) string {
	t.Helper()
	sdb, err := shard.New(core.Options{Dim: 3}, n)
	if err != nil {
		t.Fatal(err)
	}
	defer sdb.Close()
	if _, err := sdb.AddAll(seqs); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), fmt.Sprintf("s%d", n))
	if err := store.SaveSharded(sdb, dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// segPath is the segment file of shard i of a store of n shards at dir.
func segPath(dir string, n, i int) string {
	if n == 1 {
		return filepath.Join(dir, "shard000", "segments.sg2")
	}
	return filepath.Join(dir, fmt.Sprintf("shard%03d", i), "segments.sg2")
}

// TestOverlappedOpenFailsClosed: the points check runs beside the index
// build on every v2 open — LoadShardedWith on 1 and on 3 shards, LoadWith,
// and a txn snapshot reopen — and a bit flip or a NaN in a points section
// still fails the open. The failed open returns no database and leaves no
// goroutine, no descriptor and no mapping of the store behind: what was
// built is closed, then the mapping and the file are released. A FileIndex
// open leaves the store's index files as they were.
// The pristine stores open, and a database that opened keeps its mapping.
func TestOverlappedOpenFailsClosed(t *testing.T) {
	seqs := store.CorpusSeqs(21, 240, 3)
	for _, n := range []int{1, 3} {
		dir := savedSharded(t, n, seqs)
		spoiled := segPath(dir, n, n-1)
		good, err := os.ReadFile(spoiled)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range []store.LoadOptions{{}, {FileIndex: true}} {
			sdb, err := store.LoadShardedWith(dir, o)
			if err != nil {
				t.Fatalf("%d shards %+v: pristine store refused: %v", n, o, err)
			}
			if h := held(t, dir); len(h) < n {
				t.Errorf("%d shards %+v: an open database holds %d of the store's files", n, o, len(h))
			}
			sdb.Close()
		}
		for _, d := range pointsDamage {
			for _, o := range []store.LoadOptions{{}, {FileIndex: true}} {
				spoilFile(t, spoiled, d.spoil)
				staleIndex(t, dir)
				before := take(t, dir)
				sdb, err := store.LoadShardedWith(dir, o)
				var got any
				if sdb != nil {
					got = sdb
					sdb.Close()
				}
				assertFailedClean(t, fmt.Sprintf("LoadShardedWith, %d shards %+v, %s", n, o, d.name), got, err, store.ErrBadStore, d.nonFinite, before, dir)
				if err := os.WriteFile(spoiled, good, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	db, err := core.NewDatabase(core.Options{Dim: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.AddAll(seqs); err != nil {
		t.Fatal(err)
	}
	single := filepath.Join(t.TempDir(), "single")
	if err := store.Save(db, single); err != nil {
		t.Fatal(err)
	}
	for _, d := range pointsDamage {
		spoilFile(t, filepath.Join(single, "segments.sg2"), d.spoil)
		staleIndex(t, single)
		for _, fileIndex := range []bool{false, true} {
			before := take(t, single)
			ldb, err := store.Load(single, fileIndex)
			var got any
			if ldb != nil {
				got = ldb
				ldb.Close()
			}
			assertFailedClean(t, fmt.Sprintf("Load fileIndex=%v, %s", fileIndex, d.name), got, err, store.ErrBadStore, d.nonFinite, before, single)
		}
		if err := store.Save(db, single); err != nil {
			t.Fatal(err)
		}
	}

	tdir := t.TempDir()
	tdb, err := txn.Open(txn.Options{Dir: tdir, Dim: 3, NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tdb.AddAll(seqs); err != nil {
		t.Fatal(err)
	}
	if err := tdb.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := tdb.Close(); err != nil {
		t.Fatal(err)
	}
	cur, err := os.ReadFile(filepath.Join(tdir, "CURRENT"))
	if err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(tdir, strings.TrimSpace(string(cur)), "segments.sg2")
	good, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range pointsDamage {
		spoilFile(t, snap, d.spoil)
		before := take(t, tdir)
		tdb, err := txn.Open(txn.Options{Dir: tdir, NoFsync: true})
		var got any
		if tdb != nil {
			got = tdb
			tdb.Close()
		}
		// txn reports the store's error as text under its own ErrBadDir.
		assertFailedClean(t, "txn reopen, "+d.name, got, err, txn.ErrBadDir, false, before, tdir)
		if err := os.WriteFile(snap, good, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	tdb, err = txn.Open(txn.Options{Dir: tdir, NoFsync: true})
	if err != nil {
		t.Fatalf("txn reopen of the restored snapshot: %v", err)
	}
	if tdb.Len() != len(seqs) {
		t.Errorf("txn reopen holds %d sequences, want %d", tdb.Len(), len(seqs))
	}
	tdb.Close()
}

// TestPointsErrorComesFirst: when a points section and a later part of the
// file are both bad, an open reports the points — the error an open that
// read the file in order would meet first — however the two checks race.
// The later damage is a bound column failing its checksum (found while
// the directory decodes) or a packed leaf naming no sequence under a
// correct checksum (found only by the index build). Across shards the
// first damaged shard's error comes first, as a shard-by-shard open meets
// it.
func TestPointsErrorComesFirst(t *testing.T) {
	seqs := store.CorpusSeqs(22, 240, 3)
	nan := pointsDamage[1].spoil
	flipLo := func(file []byte) {
		start, n := store.SectionSpan(file, store.SecLo)
		file[start+n/2] ^= 0x10
	}
	strayLeaf := func(file []byte) {
		start, _ := store.SectionSpan(file, store.SecLeafRefs)
		binary.LittleEndian.PutUint64(file[start:], uint64(rtree.PackRef(1<<20, 0)))
		store.Reseal(file, store.SecLeafRefs)
	}
	for _, n := range []int{1, 3} {
		dir := savedSharded(t, n, seqs)
		last := segPath(dir, n, n-1)
		good, err := os.ReadFile(last)
		if err != nil {
			t.Fatal(err)
		}
		// Each later damage alone fails the open, without ErrNonFinite.
		for name, later := range map[string]func([]byte){"bound checksum": flipLo, "stray leaf ref": strayLeaf} {
			spoilFile(t, last, later)
			if _, err := store.LoadShardedWith(dir, store.LoadOptions{}); !errors.Is(err, store.ErrBadStore) || errors.Is(err, core.ErrNonFinite) {
				t.Errorf("%d shards, %s alone: err = %v", n, name, err)
			}
			for range 20 {
				spoilFile(t, last, nan)
				sdb, err := store.LoadShardedWith(dir, store.LoadOptions{})
				if sdb != nil || !errors.Is(err, core.ErrNonFinite) {
					t.Fatalf("%d shards, NaN points and %s: err = %v, want the points' ErrNonFinite", n, name, err)
				}
			}
			if err := os.WriteFile(last, good, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if n == 1 {
			continue
		}
		// Shard 0's later damage is met before shard 2's points.
		first := segPath(dir, n, 0)
		good0, err := os.ReadFile(first)
		if err != nil {
			t.Fatal(err)
		}
		spoilFile(t, first, flipLo)
		spoilFile(t, last, nan)
		for range 20 {
			_, err := store.LoadShardedWith(dir, store.LoadOptions{})
			if !errors.Is(err, store.ErrBadStore) || errors.Is(err, core.ErrNonFinite) || !strings.Contains(err.Error(), "shard 0") {
				t.Fatalf("shard 0's bound checksum and shard 2's NaN: err = %v, want shard 0's", err)
			}
		}
		if err := os.WriteFile(first, good0, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(last, good, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// ReadSegments and LoadSegments order them the same way.
	dir := savedSharded(t, 1, seqs)
	path := segPath(dir, 1, 0)
	spoilFile(t, path, flipLo, nan)
	before := take(t, dir)
	if _, err := store.ReadSegments(path); !errors.Is(err, core.ErrNonFinite) {
		t.Errorf("ReadSegments, NaN points and a bound checksum: err = %v", err)
	}
	built := false
	_, err := store.LoadSegments(path, func(c *store.Corpus) (*core.Database, error) {
		built = true
		return nil, errors.New("unreachable")
	})
	if built || !errors.Is(err, core.ErrNonFinite) {
		t.Errorf("LoadSegments, NaN points and a bound checksum: built %v, err = %v", built, err)
	}
	if left := gained(t, dir, before.holds); len(left) > 0 {
		t.Errorf("refused reads left the store held: %v", left)
	}
}

// TestLoadSegmentsClosesWhatItBuilt: when the points check fails after
// build succeeded, LoadSegments closes what build made before it releases
// the mapping that thing aliases, and returns the check's error, not the
// build.
func TestLoadSegmentsClosesWhatItBuilt(t *testing.T) {
	dir := savedSharded(t, 1, store.CorpusSeqs(23, 120, 3))
	path := segPath(dir, 1, 0)
	spoilFile(t, path, pointsDamage[1].spoil)
	var order []string
	mapped := false
	got, err := store.LoadSegments(path, func(c *store.Corpus) (*closeRecorder, error) {
		mapped = c.Mapped
		return &closeRecorder{order: &order, dir: dir, t: t}, nil
	})
	if got != nil || !errors.Is(err, core.ErrNonFinite) {
		t.Fatalf("LoadSegments of a NaN points section = %v, %v", got, err)
	}
	want := "closed"
	if mapped {
		want = "closed while mapped"
	}
	if !slices.Equal(order, []string{want}) {
		t.Errorf("close order %v, want [%s]", order, want)
	}
	if h := held(t, dir); len(h) > 0 {
		t.Errorf("the failed load left the store held: %v", h)
	}
}

// closeRecorder records whether the store was still mapped when it closed.
type closeRecorder struct {
	order *[]string
	dir   string
	t     *testing.T
}

func (c *closeRecorder) Close() error {
	if len(held(c.t, c.dir)) > 0 {
		*c.order = append(*c.order, "closed while mapped")
	} else {
		*c.order = append(*c.order, "closed")
	}
	return nil
}

// TestMatchOutlivesClose: a v2 open's mapping lives until the process
// exits, not until its database closes, because a Match.Seq handed out
// before Close is a view of the mapped points section. Every sequence of
// a kNN answer reads the same coordinates through At and Flat after Close
// as before it, from a store opened on 1 shard, on 3 shards and as a txn
// snapshot reopen.
func TestMatchOutlivesClose(t *testing.T) {
	seqs := store.CorpusSeqs(23, 60, 3)
	q := core.Query{Seq: seqs[5], Kind: core.KNN, K: len(seqs)}
	answer := func(t *testing.T, where string, db shard.DB) ([]core.Match, map[uint32][]float64) {
		t.Helper()
		res, err := db.Do(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		if len(res.Matches) != len(seqs) {
			t.Fatalf("%s: kNN returned %d of %d", where, len(res.Matches), len(seqs))
		}
		want := map[uint32][]float64{}
		for _, m := range res.Matches {
			want[m.SeqID] = slices.Clone(m.Seq.Flat())
		}
		return res.Matches, want
	}
	readable := func(t *testing.T, where string, ms []core.Match, want map[uint32][]float64) {
		t.Helper()
		runtime.GC()
		for _, m := range ms {
			w, s := want[m.SeqID], m.Seq
			if !slices.Equal(s.Flat(), w) {
				t.Fatalf("%s: sequence %d reads other coordinates through Flat after Close", where, m.SeqID)
			}
			for i := range s.Len() {
				if !slices.Equal(s.At(i), w[i*3:i*3+3]) {
					t.Fatalf("%s: sequence %d point %d reads %v after Close, want %v", where, m.SeqID, i, s.At(i), w[i*3:i*3+3])
				}
			}
		}
	}
	for _, n := range []int{1, 3} {
		where := fmt.Sprintf("%d shard(s)", n)
		sdb, err := store.LoadShardedWith(savedSharded(t, n, seqs), store.LoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ms, want := answer(t, where, sdb)
		if err := sdb.Close(); err != nil {
			t.Fatal(err)
		}
		readable(t, where, ms, want)
	}

	tdir := t.TempDir()
	tdb, err := txn.Open(txn.Options{Dir: tdir, Dim: 3, NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tdb.AddAll(seqs); err != nil {
		t.Fatal(err)
	}
	if err := tdb.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := tdb.Close(); err != nil {
		t.Fatal(err)
	}
	if tdb, err = txn.Open(txn.Options{Dir: tdir, NoFsync: true}); err != nil {
		t.Fatal(err)
	}
	if st := tdb.Stats(); st.DeltaAdds != 0 {
		t.Fatalf("txn reopen serves %d sequences from its delta, want all from the snapshot", st.DeltaAdds)
	}
	ms, want := answer(t, "txn reopen", tdb)
	if err := tdb.Close(); err != nil {
		t.Fatal(err)
	}
	readable(t, "txn reopen", ms, want)
}
