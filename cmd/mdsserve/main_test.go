package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/seqio"
	"repro/internal/shard"
	"repro/internal/txn"
)

// txnNodes returns the transactional nodes behind a database openDurable
// built: the database itself for one shard, the router's shards otherwise.
func txnNodes(t *testing.T, db shard.DB) []*txn.DB {
	t.Helper()
	if tdb, ok := db.(*txn.DB); ok {
		return []*txn.DB{tdb}
	}
	sdb, ok := db.(*shard.ShardedDB)
	if !ok {
		t.Fatalf("openDurable returned %T", db)
	}
	var out []*txn.DB
	for i := 0; i < sdb.Shards(); i++ {
		out = append(out, sdb.Shard(i).(*txn.DB))
	}
	return out
}

// TestOpenDurableSeedIsCheckpointed is the regression test for the fresh
// `-durable DIR -data F` start: the seeding AddAll is one WAL record, so
// without an explicit checkpoint the whole corpus stayed in the unindexed
// delta. After the seed-open every node must have folded (empty delta,
// checkpoint counted) and answer from the index; a restart on the same
// directory must neither re-ingest nor write.
func TestOpenDurableSeedIsCheckpointed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	seqs := make([]*core.Sequence, 24)
	for i := range seqs {
		pts := make([]geom.Point, 40+rng.Intn(40))
		p := geom.Point{rng.Float64(), rng.Float64(), rng.Float64()}
		for j := range pts {
			for k := range p {
				p[k] += (rng.Float64() - 0.5) * 0.05
			}
			pts[j] = p.Clone()
		}
		seqs[i] = &core.Sequence{Label: fmt.Sprintf("s%02d", i), Points: pts} // the router shards by label
	}
	data := filepath.Join(t.TempDir(), "corpus.mds")
	if err := seqio.WriteFile(data, seqs); err != nil {
		t.Fatal(err)
	}
	q := &core.Sequence{Points: seqs[3].Points[5:30]}

	for _, shards := range []int{1, 3} {
		tc := txnConfig{dir: t.TempDir(), noFsync: true, checkpointEvery: 256}
		db, err := openDurable(data, 0, shards, tc)
		if err != nil {
			t.Fatal(err)
		}
		if db.Len() != len(seqs) {
			t.Fatalf("shards=%d: seeded %d sequences, want %d", shards, db.Len(), len(seqs))
		}
		for i, n := range txnNodes(t, db) {
			st := n.Stats()
			if st.Live == 0 {
				t.Fatalf("shards=%d node %d holds nothing; the test needs every node seeded", shards, i)
			}
			if st.Checkpoints < 1 || st.DeltaAdds != 0 || st.CheckpointLSN != st.LastLSN {
				t.Fatalf("shards=%d node %d after seed-open: checkpoints=%d delta_adds=%d checkpoint_lsn=%d last_lsn=%d",
					shards, i, st.Checkpoints, st.DeltaAdds, st.CheckpointLSN, st.LastLSN)
			}
		}
		ms, st, err := db.SearchCtx(context.Background(), q, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) == 0 || st.IndexEntriesHit == 0 {
			t.Fatalf("shards=%d: %d matches, %d index entries hit — the base is not indexed", shards, len(ms), st.IndexEntriesHit)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}

		db, err = openDurable(data, 0, shards, tc)
		if err != nil {
			t.Fatal(err)
		}
		if db.Len() != len(seqs) {
			t.Fatalf("shards=%d: restart holds %d sequences, want %d (re-ingested?)", shards, db.Len(), len(seqs))
		}
		for i, n := range txnNodes(t, db) {
			if st := n.Stats(); st.Commits != 0 || st.RecoveredRecords != 0 || st.DeltaAdds != 0 {
				t.Fatalf("shards=%d node %d after restart: commits=%d recovered=%d delta_adds=%d",
					shards, i, st.Commits, st.RecoveredRecords, st.DeltaAdds)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenDurableRefusesOtherShardCount: a durability directory records no
// shard count, so reopening one under another count used to serve whatever
// shard directories matched (4 → 2: half the corpus, new writes hashed mod
// 2 onto shards filled mod 4) or an empty node beside them (4 → 1). The
// layout on disk decides now, before any node is opened; the count it was
// written with, and a fresh directory, open as before.
func TestOpenDurableRefusesOtherShardCount(t *testing.T) {
	seqs := make([]*core.Sequence, 16)
	for i := range seqs {
		seqs[i] = &core.Sequence{Label: fmt.Sprintf("s%02d", i), Points: []geom.Point{{0.1, 0.2, float64(i) / 16}, {0.2, 0.3, float64(i) / 16}}}
	}
	data := filepath.Join(t.TempDir(), "corpus.mds")
	if err := seqio.WriteFile(data, seqs); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ wrote, reopen int }{{4, 2}, {4, 1}, {1, 4}, {4, 4}, {1, 1}} {
		cfg := txnConfig{dir: filepath.Join(t.TempDir(), "fresh"), noFsync: true}
		db, err := openDurable(data, 0, tc.wrote, cfg)
		if err != nil {
			t.Fatalf("fresh directory, %d shards: %v", tc.wrote, err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		before, err := os.ReadDir(cfg.dir)
		if err != nil {
			t.Fatal(err)
		}
		db, err = openDurable("", 3, tc.reopen, cfg)
		if tc.wrote == tc.reopen {
			if err != nil {
				t.Fatalf("written with %d shards, reopened with %d: %v", tc.wrote, tc.reopen, err)
			}
			if db.Len() != len(seqs) {
				t.Errorf("written with %d shards, reopened with %d: %d sequences, want %d", tc.wrote, tc.reopen, db.Len(), len(seqs))
			}
			db.Close()
			continue
		}
		if err == nil {
			n := db.Len()
			db.Close()
			t.Fatalf("written with %d shards, reopened with %d: opened, serving %d of %d sequences", tc.wrote, tc.reopen, n, len(seqs))
		}
		for _, want := range []string{fmt.Sprintf("written with %d shard(s)", tc.wrote), fmt.Sprintf("-shards is %d", tc.reopen)} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not say %q", err, want)
			}
		}
		if after, _ := os.ReadDir(cfg.dir); len(after) != len(before) {
			t.Errorf("written with %d shards, refused with %d: the directory went from %d to %d entries", tc.wrote, tc.reopen, len(before), len(after))
		}
	}
}
