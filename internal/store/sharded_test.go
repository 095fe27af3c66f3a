package store

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/fractal"
	"repro/internal/shard"
)

func shardedCorpus(t *testing.T, n int, seed int64) []*core.Sequence {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	seqs, err := fractal.GenerateSet(rng, n, 48, 96, fractal.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return seqs
}

func searchLabels(t *testing.T, db shard.DB, q *core.Sequence, eps float64) []string {
	t.Helper()
	matches, _, err := db.SearchCtx(context.Background(), q, eps)
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]string, len(matches))
	for i, m := range matches {
		labels[i] = m.Seq.Label
	}
	sort.Strings(labels)
	return labels
}

func TestShardedSaveLoadRoundTrip(t *testing.T) {
	for _, fileIndex := range []bool{false, true} {
		t.Run(fmt.Sprintf("fileIndex=%v", fileIndex), func(t *testing.T) {
			seqs := shardedCorpus(t, 30, 21)
			sdb, err := shard.New(core.Options{Dim: 3}, 4)
			if err != nil {
				t.Fatal(err)
			}
			defer sdb.Close()
			if _, err := sdb.AddAll(seqs); err != nil {
				t.Fatal(err)
			}
			q := &core.Sequence{Label: "q", Points: seqs[2].Points[:20]}
			wantLabels := searchLabels(t, sdb, q, 0.25)
			wantLens := sdb.ShardLens()

			dir := filepath.Join(t.TempDir(), "db")
			if err := SaveSharded(sdb, dir); err != nil {
				t.Fatal(err)
			}
			if !IsSharded(dir) {
				t.Fatal("saved dir not detected as sharded")
			}

			loaded, err := LoadSharded(dir, fileIndex)
			if err != nil {
				t.Fatal(err)
			}
			defer loaded.Close()
			if loaded.Shards() != 4 {
				t.Fatalf("loaded %d shards, want 4", loaded.Shards())
			}
			if loaded.Len() != 30 {
				t.Fatalf("loaded %d sequences, want 30", loaded.Len())
			}
			if got := loaded.ShardLens(); !reflect.DeepEqual(got, wantLens) {
				t.Fatalf("placement not preserved: %v, want %v", got, wantLens)
			}
			if got := searchLabels(t, loaded, q, 0.25); !reflect.DeepEqual(got, wantLabels) {
				t.Fatalf("search after reload: %v, want %v", got, wantLabels)
			}
		})
	}
}

// TestShardedSaveWritesNoIndexPages: SaveSharded leaves no index.db in any
// shard directory, since no sharded load reads one, and the saved store
// answers bit-equal to the saved database loaded in memory and with
// FileIndex (which builds its own index files).
func TestShardedSaveWritesNoIndexPages(t *testing.T) {
	seqs := shardedCorpus(t, 30, 23)
	sdb, err := shard.New(core.Options{Dim: 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sdb.Close()
	if _, err := sdb.AddAll(seqs); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "db")
	if err := SaveSharded(sdb, dir); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		path := filepath.Join(dir, fmt.Sprintf(shardDirFormat, i), indexFile)
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("shard %d: %s exists (stat: %v)", i, indexFile, err)
		}
	}
	queries := []*core.Sequence{
		{Points: seqs[2].Points[:20]},
		{Points: seqs[11].Points[5:40]},
	}
	for _, o := range []LoadOptions{{}, {FileIndex: true}} {
		loaded, err := LoadShardedWith(dir, o)
		if err != nil {
			t.Fatalf("%+v: %v", o, err)
		}
		assertAnswersIdentical(t, fmt.Sprintf("%+v", o), sdb, loaded, queries)
		loaded.Close()
	}
}

func TestShardedSaveLoadWithEmptyShards(t *testing.T) {
	// 2 sequences over 6 shards: several shard dirs hold only metadata.
	seqs := shardedCorpus(t, 2, 22)
	sdb, err := shard.New(core.Options{Dim: 3}, 6)
	if err != nil {
		t.Fatal(err)
	}
	defer sdb.Close()
	if _, err := sdb.AddAll(seqs); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "db")
	if err := SaveSharded(sdb, dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSharded(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if loaded.Len() != 2 || loaded.Shards() != 6 {
		t.Fatalf("loaded %d sequences over %d shards, want 2 over 6", loaded.Len(), loaded.Shards())
	}
}

func TestLoadShardedSingleDirCompat(t *testing.T) {
	// A plain single-node store loads as one shard.
	seqs := shardedCorpus(t, 12, 23)
	db, err := core.NewDatabase(core.Options{Dim: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.AddAll(seqs); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "db")
	if err := Save(db, dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSharded(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if loaded.Shards() != 1 {
		t.Fatalf("single-dir store loaded as %d shards, want 1", loaded.Shards())
	}
	if loaded.Len() != 12 {
		t.Fatalf("loaded %d sequences, want 12", loaded.Len())
	}
	q := &core.Sequence{Label: "q", Points: seqs[0].Points[:16]}
	want := searchLabels(t, db, q, 0.25)
	if got := searchLabels(t, loaded, q, 0.25); !reflect.DeepEqual(got, want) {
		t.Fatalf("search diverges after single-dir load: %v, want %v", got, want)
	}
}

func TestLoadRejectsShardedDir(t *testing.T) {
	seqs := shardedCorpus(t, 4, 24)
	sdb, err := shard.New(core.Options{Dim: 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sdb.Close()
	if _, err := sdb.AddAll(seqs); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "db")
	if err := SaveSharded(sdb, dir); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, false); err == nil {
		t.Fatal("Load on a sharded dir: want error")
	}
}

func TestSaveShardedRefusesEmpty(t *testing.T) {
	sdb, err := shard.New(core.Options{Dim: 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sdb.Close()
	if err := SaveSharded(sdb, t.TempDir()); err == nil {
		t.Fatal("want error saving empty sharded database")
	}
}

func TestLoadShardedRejectsCorruptShardsFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, shardsFile), []byte("garbage!xx"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSharded(dir, false); err == nil {
		t.Fatal("want error on corrupt shards file")
	}
}
