package store

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
)

func walkSeq(rng *rand.Rand, label string, n int) *core.Sequence {
	pts := make([]geom.Point, n)
	cur := geom.Point{rng.Float64(), rng.Float64(), rng.Float64()}
	for i := range pts {
		next := make(geom.Point, 3)
		for k := range next {
			next[k] = math.Min(1, math.Max(0, cur[k]+(rng.Float64()-0.5)*0.08))
		}
		pts[i], cur = next, next
	}
	return &core.Sequence{Label: label, Points: pts}
}

func buildDB(t *testing.T, n int) (*core.Database, []*core.Sequence) {
	t.Helper()
	db, err := core.NewDatabase(core.Options{Dim: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	rng := rand.New(rand.NewSource(int64(n)))
	var seqs []*core.Sequence
	for i := 0; i < n; i++ {
		s := walkSeq(rng, "seq-"+string(rune('a'+i)), 40+rng.Intn(60))
		if _, err := db.Add(s); err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, s)
	}
	return db, seqs
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db, seqs := buildDB(t, 12)
	dir := filepath.Join(t.TempDir(), "db")
	if err := Save(db, dir); err != nil {
		t.Fatal(err)
	}
	for _, fileIndex := range []bool{false, true} {
		loaded, err := Load(dir, fileIndex)
		if err != nil {
			t.Fatalf("Load(fileIndex=%v): %v", fileIndex, err)
		}
		if loaded.Len() != 12 {
			t.Errorf("loaded Len = %d", loaded.Len())
		}
		if loaded.PartitionConfig() != db.PartitionConfig() {
			t.Errorf("config drifted: %+v vs %+v", loaded.PartitionConfig(), db.PartitionConfig())
		}
		// Same search results on both databases.
		q := &core.Sequence{Points: seqs[4].Points[5:30]}
		a, _, err := db.Search(q, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := loaded.Search(q, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Errorf("fileIndex=%v: %d vs %d matches", fileIndex, len(a), len(b))
		}
		loaded.Close()
	}
}

func TestSaveSkipsRemovedSequences(t *testing.T) {
	db, _ := buildDB(t, 6)
	if err := db.Remove(2); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "db")
	if err := Save(db, dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if loaded.Len() != 5 {
		t.Errorf("loaded Len = %d, want 5", loaded.Len())
	}
}

func TestSaveEmptyDatabaseRejected(t *testing.T) {
	db, err := core.NewDatabase(core.Options{Dim: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := Save(db, t.TempDir()); err == nil {
		t.Error("empty save accepted")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	if _, err := Load(dir, false); !errors.Is(err, ErrBadStore) {
		t.Errorf("missing meta: %v", err)
	}
	os.WriteFile(filepath.Join(dir, metaFile), []byte("junk"), 0o644)
	if _, err := Load(dir, false); !errors.Is(err, ErrBadStore) {
		t.Errorf("corrupt meta: %v", err)
	}
}

func TestLoadPreservesCustomPartitionConfig(t *testing.T) {
	cfg := core.PartitionConfig{QueryExtent: 0.5, MaxPoints: 17}
	db, err := core.NewDatabase(core.Options{Dim: 3, Partition: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(9))
	if _, err := db.Add(walkSeq(rng, "x", 80)); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "db")
	if err := Save(db, dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if got := loaded.PartitionConfig(); got != cfg {
		t.Errorf("config = %+v, want %+v", got, cfg)
	}
}

func TestLoadReusesExistingIndex(t *testing.T) {
	db, seqs := buildDB(t, 10)
	dir := filepath.Join(t.TempDir(), "db")
	if err := Save(db, dir); err != nil {
		t.Fatal(err)
	}
	// First load builds the index file.
	l1, err := Load(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	l1.Close()
	idxPath := filepath.Join(dir, indexFile)
	st1, err := os.Stat(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	// Second load should reattach without rewriting the file.
	l2, err := Load(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	st2, err := os.Stat(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.ModTime().Equal(st1.ModTime()) || st2.Size() != st1.Size() {
		t.Errorf("index file rewritten on second load (mtime %v -> %v)", st1.ModTime(), st2.ModTime())
	}
	// And the reattached database answers correctly.
	q := &core.Sequence{Points: seqs[3].Points[5:25]}
	matches, _, err := l2.Search(q, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range matches {
		if m.Seq.Label == seqs[3].Label {
			found = true
		}
	}
	if !found {
		t.Error("reattached index missing the source sequence")
	}
}

func TestLoadRebuildsStaleIndex(t *testing.T) {
	db, _ := buildDB(t, 6)
	dir := filepath.Join(t.TempDir(), "db")
	if err := Save(db, dir); err != nil {
		t.Fatal(err)
	}
	// Plant garbage where the index should be.
	if err := os.WriteFile(filepath.Join(dir, indexFile), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir, true)
	if err != nil {
		t.Fatalf("Load with stale index: %v", err)
	}
	defer loaded.Close()
	if loaded.Len() != 6 {
		t.Errorf("Len = %d", loaded.Len())
	}
}

func TestSaveToUnwritableDirFails(t *testing.T) {
	db, _ := buildDB(t, 2)
	// A path whose parent is a file cannot be created.
	parent := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(parent, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Save(db, filepath.Join(parent, "sub")); err == nil {
		t.Error("save into file-as-directory accepted")
	}
}

func TestLoadRejectsCorruptSequences(t *testing.T) {
	db, seqs := buildDB(t, 3)
	dir := filepath.Join(t.TempDir(), "db")
	writeV1Dir(t, dir, seqs, db.PartitionConfig())
	if err := os.WriteFile(filepath.Join(dir, seqFile), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, false); !errors.Is(err, ErrBadStore) {
		t.Errorf("corrupt sequences: %v", err)
	}
}

func TestLoadRejectsCorruptSegments(t *testing.T) {
	db, _ := buildDB(t, 3)
	dir := filepath.Join(t.TempDir(), "db")
	if err := Save(db, dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segFile), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, false); !errors.Is(err, ErrBadStore) {
		t.Errorf("corrupt segments: %v", err)
	}
}

func TestLoadRejectsWrongMetaLength(t *testing.T) {
	db, _ := buildDB(t, 3)
	dir := filepath.Join(t.TempDir(), "db")
	if err := Save(db, dir); err != nil {
		t.Fatal(err)
	}
	meta, err := os.ReadFile(filepath.Join(dir, metaFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, metaFile), meta[:len(meta)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, false); !errors.Is(err, ErrBadStore) {
		t.Errorf("short meta: %v", err)
	}
}

func TestSaveLoadPreservesLabels(t *testing.T) {
	db, seqs := buildDB(t, 4)
	dir := filepath.Join(t.TempDir(), "db")
	if err := Save(db, dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	got := loaded.Sequences()
	for i, s := range got {
		if s.Label != seqs[i].Label {
			t.Errorf("sequence %d label %q, want %q", i, s.Label, seqs[i].Label)
		}
	}
}
