package mdseq_test

import (
	"context"
	"math/rand"
	"path/filepath"
	"testing"

	mdseq "repro"
)

// TestFacadeLifecycle drives the full public surface: build, append,
// remove, save, load, reattach, knn, parallel search, explain, DTW.
func TestFacadeLifecycle(t *testing.T) {
	dir := t.TempDir()
	db, err := mdseq.Open(mdseq.Options{Dim: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(200))
	seqs := make([]*mdseq.Sequence, 20)
	for i := range seqs {
		seqs[i] = walk(rng, 60+rng.Intn(60))
		seqs[i].Label = "s" + string(rune('a'+i))
	}
	if _, err := db.AddAll(seqs); err != nil {
		t.Fatal(err)
	}

	// Streaming append.
	tail := walk(rng, 30)
	if err := db.AppendPoints(3, tail.Points); err != nil {
		t.Fatal(err)
	}
	// Remove one.
	if err := db.Remove(7); err != nil {
		t.Fatal(err)
	}
	if db.Len() != 19 {
		t.Fatalf("Len = %d", db.Len())
	}

	// k-NN through the facade.
	q := &mdseq.Sequence{Points: seqs[5].Points[10:35]}
	nn, err := db.SearchKNN(q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(nn) != 3 || nn[0].SeqID != 5 || nn[0].Dist != 0 {
		t.Fatalf("knn = %+v", nn)
	}

	// Search is Do, the one query entry point, under its first name; the
	// scan through the same entry point dismisses nothing Search found.
	serial, _, err := db.Search(q, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Do(context.Background(), mdseq.Query{Seq: q, Eps: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(res.Matches) {
		t.Fatalf("Search %d vs Do %d matches", len(serial), len(res.Matches))
	}
	scan, err := db.Do(context.Background(), mdseq.Query{Seq: q, Kind: mdseq.Scan, Eps: 0.2})
	if err != nil || len(scan.Matches) == 0 || len(scan.Matches) > len(serial) {
		t.Fatalf("scan: %d relevant of %d matches, err %v", len(scan.Matches), len(serial), err)
	}

	// Explain agrees on the match count.
	ex, err := db.Explain(q, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	_, _, matched := ex.Counts()
	if matched != len(serial) {
		t.Fatalf("explain matched %d, search %d", matched, len(serial))
	}

	// DTW re-ranking keeps the set.
	ranked := mdseq.RefineDTW(q, serial, -1)
	if len(ranked) != len(serial) {
		t.Fatal("RefineDTW changed the result set size")
	}

	// Save, load, verify.
	store := filepath.Join(dir, "store")
	if err := mdseq.Save(db, store); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	loaded, err := mdseq.Load(store, true)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if loaded.Len() != 19 {
		t.Fatalf("loaded Len = %d", loaded.Len())
	}
	m2, _, err := loaded.Search(q, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(m2) != len(serial) {
		t.Fatalf("loaded search %d vs original %d", len(m2), len(serial))
	}
}

// TestFacadeSharded drives the sharded surface end to end: open, bulk
// load, scatter-gather search and kNN against the single-node answers,
// save, reload, placement check.
func TestFacadeSharded(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	seqs := make([]*mdseq.Sequence, 24)
	for i := range seqs {
		seqs[i] = walk(rng, 60)
		seqs[i].Label = "shard-seq-" + string(rune('a'+i))
	}
	clone := func() []*mdseq.Sequence {
		out := make([]*mdseq.Sequence, len(seqs))
		for i, s := range seqs {
			out[i] = s.Clone()
		}
		return out
	}

	single, err := mdseq.Open(mdseq.Options{Dim: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	if _, err := single.AddAll(clone()); err != nil {
		t.Fatal(err)
	}

	sdb, err := mdseq.OpenSharded(mdseq.Options{Dim: 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sdb.Close()
	if _, err := sdb.AddAll(clone()); err != nil {
		t.Fatal(err)
	}
	if sdb.Shards() != 4 || sdb.Len() != 24 {
		t.Fatalf("sharded shape: %d shards, %d sequences", sdb.Shards(), sdb.Len())
	}

	// Both topologies implement the Store interface.
	for _, db := range []mdseq.Store{single, sdb} {
		if db.Len() != 24 {
			t.Fatalf("Len = %d", db.Len())
		}
	}

	q := &mdseq.Sequence{Points: seqs[9].Points[10:40]}
	wantM, _, err := single.Search(q, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	gotM, _, err := sdb.SearchCtx(context.Background(), q, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	label := func(ms []mdseq.Match) map[string]bool {
		out := make(map[string]bool)
		for _, m := range ms {
			out[m.Seq.Label] = true
		}
		return out
	}
	if got, want := label(gotM), label(wantM); len(got) != len(want) {
		t.Fatalf("sharded matches %v, want %v", got, want)
	} else {
		for l := range want {
			if !got[l] {
				t.Fatalf("sharded search missing %q", l)
			}
		}
	}

	knn, err := sdb.Do(context.Background(), mdseq.Query{Seq: q, Kind: mdseq.KNN, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if nn := knn.Matches; len(nn) != 3 || nn[0].Seq.Label != seqs[9].Label || nn[0].Dist != 0 {
		t.Fatalf("sharded knn = %+v", nn)
	}

	// Placement rule is exported and must agree with actual placement.
	for _, s := range sdb.Sequences() {
		wantShard := mdseq.ShardFor(s.Label, 4)
		if gotShard := int(s.ID % 4); gotShard != wantShard {
			t.Fatalf("sequence %q on shard %d, placement rule says %d", s.Label, gotShard, wantShard)
		}
	}

	// Save / reload round trip.
	dir := filepath.Join(t.TempDir(), "sharded")
	if err := mdseq.SaveSharded(sdb, dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := mdseq.LoadSharded(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if loaded.Shards() != 4 || loaded.Len() != 24 {
		t.Fatalf("reloaded shape: %d shards, %d sequences", loaded.Shards(), loaded.Len())
	}
	reM, _, err := loaded.SearchCtx(context.Background(), q, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if len(reM) != len(gotM) {
		t.Fatalf("reloaded search %d matches, want %d", len(reM), len(gotM))
	}
}

// TestFacadeOpenExisting exercises the reattach path directly.
func TestFacadeOpenExisting(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "idx.db")
	rng := rand.New(rand.NewSource(201))
	seqs := make([]*mdseq.Sequence, 8)
	for i := range seqs {
		seqs[i] = walk(rng, 50)
	}
	db, err := mdseq.Open(mdseq.Options{Dim: 3, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddAll(seqs); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := mdseq.OpenExisting(mdseq.Options{Dim: 3, Path: path}, seqs)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	q := &mdseq.Sequence{Points: seqs[2].Points[:20]}
	matches, _, err := re.Search(q, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range matches {
		if m.SeqID == 2 {
			found = true
		}
	}
	if !found {
		t.Error("reattached database missing sequence")
	}
}
