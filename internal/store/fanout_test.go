package store_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rtree"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/txn"
)

// repackForeign rewrites the segment file at path with its corpus's refs
// grouped into leaves of four times this tree's fanout, and records that
// fanout: a grouping whose leaves no page of this tree can hold.
func repackForeign(t *testing.T, path string) {
	t.Helper()
	c, err := store.ReadSegments(path)
	if err != nil {
		t.Fatal(err)
	}
	fanout, _, err := rtree.CapacityFor(0, c.Dim, 0)
	if err != nil {
		t.Fatal(err)
	}
	foreign := 4 * fanout
	var refs []rtree.Ref
	for i, g := range c.Segs {
		for j := range g.MBRs {
			refs = append(refs, rtree.PackRef(uint32(i), uint32(j)))
		}
	}
	if len(refs) <= fanout {
		t.Fatalf("%s: %d MBRs fit one %d-entry leaf", path, len(refs), fanout)
	}
	var leaves [][]rtree.Ref
	for len(refs) > 0 {
		n := min(foreign, len(refs))
		leaves, refs = append(leaves, refs[:n]), refs[n:]
	}
	// Written beside and renamed over: c's segments may alias the
	// mapped old file.
	tmp := path + ".foreign"
	if err := store.WriteSegmentsPacked(tmp, c.Dim, c.Config, c.Segs, leaves, foreign); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
}

// TestV2LoadSurvivesFanoutChange: a segment file whose packed leaves were
// built for another R*-tree fanout still loads, through the plain STR bulk
// load, and answers bit-equal — on every load that reads one: Load,
// LoadShardedWith in memory and with FileIndex, and a txn reopen from a
// checkpointed snapshot. core.AddAllSegmented alone decides whether stored
// leaves fit; reusing these would overflow a leaf page.
func TestV2LoadSurvivesFanoutChange(t *testing.T) {
	const n, dim = 120, 3
	queries := []*core.Sequence{
		{Points: store.CorpusSeqs(5, n, dim)[4].Points[5:30]},
		{Points: store.CorpusSeqs(5, n, dim)[17].Points},
	}
	ref, err := core.NewDatabase(core.Options{Dim: dim})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if _, err := ref.AddAll(store.CorpusSeqs(5, n, dim)); err != nil {
		t.Fatal(err)
	}
	sref, err := shard.New(core.Options{Dim: dim}, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer sref.Close()
	if _, err := sref.AddAll(store.CorpusSeqs(5, n, dim)); err != nil {
		t.Fatal(err)
	}

	single := filepath.Join(t.TempDir(), "db")
	if err := store.Save(ref, single); err != nil {
		t.Fatal(err)
	}
	repackForeign(t, filepath.Join(single, "segments.sg2"))
	db, err := store.Load(single, false)
	if err != nil {
		t.Fatalf("Load with foreign fanout: %v", err)
	}
	store.AssertAnswersIdentical(t, "Load", ref, db, queries)
	db.Close()

	sharded := filepath.Join(t.TempDir(), "sharded")
	if err := store.SaveSharded(sref, sharded); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		repackForeign(t, filepath.Join(sharded, fmt.Sprintf("shard%03d", i), "segments.sg2"))
	}
	for _, o := range []store.LoadOptions{{}, {FileIndex: true}} {
		sdb, err := store.LoadShardedWith(sharded, o)
		if err != nil {
			t.Fatalf("LoadShardedWith %+v with foreign fanout: %v", o, err)
		}
		store.AssertAnswersIdentical(t, "LoadShardedWith", sref, sdb, queries)
		sdb.Close()
	}

	dir := t.TempDir()
	tdb, err := txn.Open(txn.Options{Dir: dir, Dim: dim, NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tdb.AddAll(store.CorpusSeqs(5, n, dim)); err != nil {
		t.Fatal(err)
	}
	if err := tdb.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := tdb.Close(); err != nil {
		t.Fatal(err)
	}
	cur, err := os.ReadFile(filepath.Join(dir, "CURRENT"))
	if err != nil {
		t.Fatal(err)
	}
	repackForeign(t, filepath.Join(dir, strings.TrimSpace(string(cur)), "segments.sg2"))
	tdb, err = txn.Open(txn.Options{Dir: dir, NoFsync: true})
	if err != nil {
		t.Fatalf("txn reopen with foreign fanout: %v", err)
	}
	defer tdb.Close()
	store.AssertAnswersIdentical(t, "txn reopen", ref, tdb, queries)
}
