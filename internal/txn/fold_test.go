package txn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/rtree"
)

// treeDigest hashes base's R*-tree as its walk visits it: every entry's
// ref and rectangle, in walk order. The walk must visit every MBR.
func treeDigest(t *testing.T, base *core.Database) string {
	t.Helper()
	h := sha256.New()
	var buf []byte
	n := 0
	err := core.ScanIndex(base, func(it rtree.Item) bool {
		n++
		buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(it.Ref))
		for k := range it.Rect.L {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(it.Rect.L[k]))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(it.Rect.H[k]))
		}
		h.Write(buf)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || n != base.NumMBRs() {
		t.Fatalf("the index walk visited %d entries of %d", n, base.NumMBRs())
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// foldDigests replays one seeded commit stream — 60 sequences folded into
// the base, then appends to 24 of them in shuffled order, 3 adds and a
// removal, folded again — through a durable store in dir, and digests the
// tree the second fold built (folded) and the tree a reopen of the
// snapshot it persisted packs (reopened): a snapshot with a hole, so the
// reopen bulk-loads the snapshot's stored leaves by id.
func foldDigests(t *testing.T, dir string) (folded, reopened string) {
	t.Helper()
	db, err := Open(Options{Dir: dir, Dim: 3, NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(26))
	seqs := make([]*core.Sequence, 60)
	for i := range seqs {
		seqs[i] = walkSeq(rng, 3, 40+rng.Intn(40))
	}
	ids, err := db.AddAll(seqs)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, k := range rng.Perm(len(ids))[:24] {
		if err := db.AppendPoints(ids[k], walkSeq(rng, 3, 5+rng.Intn(20)).Points); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := db.Add(walkSeq(rng, 3, 30)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Remove(ids[rng.Intn(len(ids))]); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	folded = treeDigest(t, db.cur.Load().base)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if s := db.Stats(); s.RecoveredRecords != 0 {
		t.Fatalf("reopen replayed %d records; the snapshot should hold them all", s.RecoveredRecords)
	}
	return folded, treeDigest(t, db.cur.Load().base)
}

// TestFoldIsDeterministic folds the same commit stream into fresh
// directories, four times, and requires one tree: a fold's bulk load is a
// function of the snapshot it cuts at alone, not of map iteration, and
// the snapshot persisted and reopened packs that same tree.
func TestFoldIsDeterministic(t *testing.T) {
	var want string
	for round := 0; round < 4; round++ {
		folded, reopened := foldDigests(t, t.TempDir())
		if folded != reopened {
			t.Fatalf("round %d: the folded tree %s and its reopened snapshot's %s differ", round, folded, reopened)
		}
		if round == 0 {
			want = folded
		} else if folded != want {
			t.Fatalf("round %d: the same delta folded into two trees (%s, %s)", round, want, folded)
		}
	}
}

// TestFoldedPointsAliasFlat checks that a folded sequence — an add, and
// an appended-to base sequence — holds its coordinates once: every point
// is the capped view of Flat at its own offset, with Flat's values.
func TestFoldedPointsAliasFlat(t *testing.T) {
	db := newMem(t, 3)
	rng := rand.New(rand.NewSource(5))
	ids, err := db.AddAll([]*core.Sequence{walkSeq(rng, 3, 40), walkSeq(rng, 3, 50)})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.AppendPoints(ids[0], walkSeq(rng, 3, 10).Points); err != nil {
		t.Fatal(err)
	}
	added, err := db.Add(walkSeq(rng, 3, 30))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, id := range []uint32{ids[0], ids[1], added} {
		g := db.Segmented(id)
		d := g.Seq.Dim()
		if len(g.Flat) != g.Seq.Len()*d {
			t.Fatalf("id %d: %d flat values for %d points of dim %d", id, len(g.Flat), g.Seq.Len(), d)
		}
		if g.Seq.Points != nil {
			t.Fatalf("id %d: the folded sequence keeps input-form points", id)
		}
		for i := range g.Seq.Len() {
			p := g.Seq.At(i)
			want := g.Flat[i*d : (i+1)*d]
			if len(p) != d || cap(p) != d || &p[0] != &want[0] || !slices.Equal(p, want) {
				t.Fatalf("id %d point %d = %v (len %d, cap %d) is not the capped view of Flat %v at offset %d",
					id, i, p, len(p), cap(p), want, i*d)
			}
		}
	}
}
