package txn

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
)

// foldDigest replays one seeded commit stream — 60 sequences folded into
// the base, then appends to 24 of them in shuffled order, 3 adds and a
// removal, folded again — through a transactional layer whose base keeps
// its R*-tree in a file under dir, and hashes that file: the index layout
// the two folds built, page for page.
func foldDigest(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "index.db")
	base, err := core.NewDatabase(core.Options{Dim: 3, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	db, err := Wrap(base, Options{})
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
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// TestFoldIsDeterministic folds the same commit stream into two fresh
// directories, eight times, and requires identical index files: the fold
// replaces overlaid base sequences in id order, so the R*-tree a
// checkpoint builds depends on the delta alone, not on map iteration.
func TestFoldIsDeterministic(t *testing.T) {
	for round := 0; round < 8; round++ {
		a, b := foldDigest(t, t.TempDir()), foldDigest(t, t.TempDir())
		if a != b {
			t.Fatalf("round %d: the same delta folded into two index layouts (%s, %s)", round, a, b)
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
		for i, p := range g.Seq.Points {
			want := g.Flat[i*d : (i+1)*d]
			if len(p) != d || cap(p) != d || &p[0] != &want[0] || !slices.Equal(p, want) {
				t.Fatalf("id %d point %d = %v (len %d, cap %d) is not the capped view of Flat %v at offset %d",
					id, i, p, len(p), cap(p), want, i*d)
			}
		}
	}
}
