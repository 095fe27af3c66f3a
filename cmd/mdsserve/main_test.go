package main

import (
	"context"
	"crypto/sha256"
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
	"repro/internal/store"
	"repro/internal/txn"
)

// txnNodes returns the transactional nodes behind a database openDB
// built: the database itself for one shard, the router's shards otherwise.
// It fails the test on any other node type.
func txnNodes(t *testing.T, db shard.DB) []*txn.DB {
	t.Helper()
	if tdb, ok := db.(*txn.DB); ok {
		return []*txn.DB{tdb}
	}
	sdb, ok := db.(*shard.ShardedDB)
	if !ok {
		t.Fatalf("openDB returned %T", db)
	}
	var out []*txn.DB
	for i := 0; i < sdb.Shards(); i++ {
		tdb, ok := sdb.Shard(i).(*txn.DB)
		if !ok {
			t.Fatalf("shard %d is a %T", i, sdb.Shard(i))
		}
		out = append(out, tdb)
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
		db, _, err := openDurable(data, 0, shards, tc)
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

		db, _, err = openDurable(data, 0, shards, tc)
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

// TestOpenDurableRestartReadsOnlyTheHeader: a restart on a durability
// directory that holds data takes the dimension from the -data file's
// header and parses none of its body. A file whose header is valid but
// whose body is cut short (binary) or garbled (CSV) opens and serves the
// stored corpus — the parent parsed the whole file on every start and
// refused it. A missing file, a foreign one and one of another dimension
// still fail; on a fresh directory the cut file fails before anything is
// created.
func TestOpenDurableRestartReadsOnlyTheHeader(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	seqs := make([]*core.Sequence, 18)
	for i := range seqs {
		pts := make([]geom.Point, 20+rng.Intn(30))
		for j := range pts {
			pts[j] = geom.Point{rng.Float64(), rng.Float64(), rng.Float64()}
		}
		seqs[i] = &core.Sequence{Label: fmt.Sprintf("s%02d", i), Points: pts}
	}
	tmp := t.TempDir()
	data, dataCSV := filepath.Join(tmp, "corpus.mds"), filepath.Join(tmp, "corpus.csv")
	if err := seqio.WriteFile(data, seqs); err != nil {
		t.Fatal(err)
	}
	if err := seqio.WriteCSVFile(dataCSV, seqs); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(data)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(tmp, "cut.mds")
	if err := os.WriteFile(cut, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	rawCSV, err := os.ReadFile(dataCSV)
	if err != nil {
		t.Fatal(err)
	}
	garbledCSV := filepath.Join(tmp, "garbled.csv")
	if err := os.WriteFile(garbledCSV, append(rawCSV, "s00,zero,x,y,z\n"...), 0o644); err != nil {
		t.Fatal(err)
	}
	foreign := filepath.Join(tmp, "foreign.mds")
	if err := os.WriteFile(foreign, []byte("not a dataset at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	flat := filepath.Join(tmp, "dim2.mds")
	if err := seqio.WriteFile(flat, []*core.Sequence{{Label: "p", Points: []geom.Point{{0.1, 0.2}, {0.3, 0.4}}}}); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cut, garbledCSV} {
		if _, err := readData(path); err == nil {
			t.Fatalf("%s parses; the test needs a body that does not", path)
		}
	}
	q := &core.Sequence{Points: seqs[4].Points[2:18]}

	for _, shards := range []int{1, 3} {
		tc := txnConfig{dir: filepath.Join(t.TempDir(), "dur"), noFsync: true}
		if db, _, err := openDurable(cut, 0, shards, tc); err == nil {
			db.Close()
			t.Fatalf("shards=%d: a fresh directory opened from a cut file", shards)
		}
		if _, err := os.Stat(tc.dir); !os.IsNotExist(err) {
			t.Fatalf("shards=%d: a fresh start from a cut file left %s behind (%v)", shards, tc.dir, err)
		}
		db, _, err := openDurable(data, 0, shards, tc)
		if err != nil {
			t.Fatal(err)
		}
		want, err := db.Do(context.Background(), core.Query{Seq: q, Eps: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		for _, path := range []string{cut, garbledCSV} {
			db, _, err := openDurable(path, 0, shards, tc)
			if err != nil {
				t.Fatalf("shards=%d: restart with %s: %v", shards, filepath.Base(path), err)
			}
			got, err := db.Do(context.Background(), core.Query{Seq: q, Eps: 0.05})
			if err != nil {
				t.Fatal(err)
			}
			if db.Len() != len(seqs) || len(got.Matches) != len(want.Matches) || len(got.Matches) == 0 {
				t.Errorf("shards=%d: restart with %s serves %d sequences and %d matches, want %d and %d",
					shards, filepath.Base(path), db.Len(), len(got.Matches), len(seqs), len(want.Matches))
			}
			for i, n := range txnNodes(t, db) {
				if st := n.Stats(); st.Commits != 0 || st.DeltaAdds != 0 {
					t.Errorf("shards=%d node %d: restart with %s committed %d, delta %d", shards, i, filepath.Base(path), st.Commits, st.DeltaAdds)
				}
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		}
		for _, tt := range []struct{ path, want string }{
			{filepath.Join(tmp, "typo.mds"), "no such file"},
			{foreign, "bad format"},
			{flat, "store has dim 3, options say 2"},
		} {
			db, _, err := openDurable(tt.path, 0, shards, tc)
			if err == nil {
				db.Close()
				t.Fatalf("shards=%d: restart with %s opened", shards, filepath.Base(tt.path))
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("shards=%d: restart with %s: error %q does not say %q", shards, filepath.Base(tt.path), err, tt.want)
			}
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
		db, _, err := openDurable(data, 0, tc.wrote, cfg)
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
		db, _, err = openDurable("", 3, tc.reopen, cfg)
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

// dirState records every entry under dir: name, size, modification time
// and, for a file, its bytes.
func dirState(t *testing.T, dir string) map[string]string {
	t.Helper()
	state := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		entry := fmt.Sprintf("%v size %d mtime %v", info.Mode(), info.Size(), info.ModTime().UnixNano())
		if !d.IsDir() {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			entry += fmt.Sprintf(" bytes %x", sha256.Sum256(data))
		}
		state[rel] = entry
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return state
}

// TestStoreServingLeavesDirectoryUntouched: -store serves its indexes from
// memory, packed from the leaves the segment files store, so opening a
// store, answering from it and closing it must not delete, write or add a
// file under its directory. The server used to delete, rebuild and flush
// index.db (a single-node store) or add index.db.shard<i> (a sharded one)
// on every start.
func TestStoreServingLeavesDirectoryUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	seqs := make([]*core.Sequence, 30)
	for i := range seqs {
		pts := make([]geom.Point, 30+rng.Intn(40))
		p := geom.Point{rng.Float64(), rng.Float64(), rng.Float64()}
		for j := range pts {
			for k := range p {
				p[k] += (rng.Float64() - 0.5) * 0.05
			}
			pts[j] = p.Clone()
		}
		seqs[i] = &core.Sequence{Label: fmt.Sprintf("s%02d", i), Points: pts}
	}
	single := filepath.Join(t.TempDir(), "single")
	if err := store.Build(single, seqs, core.DefaultPartitionConfig()); err != nil {
		t.Fatal(err)
	}
	sharded := filepath.Join(t.TempDir(), "sharded")
	sdb, err := shard.New(core.Options{Dim: 3}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sdb.AddAll(seqs); err != nil {
		t.Fatal(err)
	}
	if err := store.SaveSharded(sdb, sharded); err != nil {
		t.Fatal(err)
	}
	sdb.Close()

	q := &core.Sequence{Points: seqs[7].Points[3:25]}
	for _, dir := range []string{single, sharded} {
		before := dirState(t, dir)
		db, _, err := openDB(dir, "", 0, 1, txnConfig{})
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		res, err := db.Do(context.Background(), core.Query{Seq: q, Eps: 0.05})
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		found := false
		for _, m := range res.Matches {
			found = found || m.Seq.Label == seqs[7].Label
		}
		if !found {
			t.Errorf("%s: the query's source sequence is not among %d matches", dir, len(res.Matches))
		}
		after := dirState(t, dir)
		for name, was := range before {
			if now, ok := after[name]; !ok {
				t.Errorf("%s: %s was removed", dir, name)
			} else if now != was {
				t.Errorf("%s: %s changed: %s -> %s", dir, name, was, now)
			}
		}
		for name := range after {
			if _, ok := before[name]; !ok {
				t.Errorf("%s: %s was created", dir, name)
			}
		}
	}
}
