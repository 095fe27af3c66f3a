package txn

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
)

// openFmt opens a durable DB with the given quantized-prefilter setting.
func openFmt(t *testing.T, dir string, quant bool) *DB {
	t.Helper()
	db, err := Open(Options{Dir: dir, Dim: 3, NoFsync: true, QuantizedMBR: quant})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return db
}

// snapshotPayload returns which sequence payload file the promoted
// snapshot of dir holds.
func snapshotPayload(t *testing.T, dir string) string {
	t.Helper()
	cur, err := os.ReadFile(filepath.Join(dir, currentFile))
	if err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(dir, strings.TrimSpace(string(cur)))
	for _, payload := range []string{snapSegFile, snapSeqFile} {
		if _, err := os.Stat(filepath.Join(snap, payload)); err == nil {
			return payload
		}
	}
	t.Fatalf("snapshot %s holds no sequence payload", snap)
	return ""
}

// TestSnapshotFormatsRoundTrip checkpoints a corpus with holes (removed
// ids) and verifies a reopen — with and without the quantized prefilter —
// restores a byte-identical database. Checkpoints write v2 only; the v1
// row of this matrix is TestReadsV1Golden's committed directory.
func TestSnapshotFormatsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	seqs := make([]*core.Sequence, 12)
	for i := range seqs {
		seqs[i] = randSeq(rng, 3, 30+rng.Intn(40))
	}
	queries := []*core.Sequence{
		{Points: seqs[3].Points[2:18]},
		{Points: seqs[9].Points[5:25]},
	}

	dir := t.TempDir()
	db := openFmt(t, dir, false)
	ids, err := db.AddAll(seqs)
	if err != nil {
		t.Fatal(err)
	}
	// Punch holes: some removed before the checkpoint (fold as
	// tombstones), so the snapshot id list has gaps.
	for _, victim := range []int{1, 4, 10} {
		if err := db.Remove(ids[victim]); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	want := fingerprint(t, db, queries, 0.9)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if got := snapshotPayload(t, dir); got != snapSegFile {
		t.Fatalf("checkpoint wrote %s, want %s", got, snapSegFile)
	}
	for _, quant := range []bool{false, true} {
		db2 := openFmt(t, dir, quant)
		if got := fingerprint(t, db2, queries, 0.9); got != want {
			t.Fatalf("reopened (quant=%v): fingerprint drifted\nwant %s\ngot  %s", quant, want, got)
		}
		if err := db2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// goldenSeqs regenerates the six sequences testdata/v1durable was
// written from (the same six as internal/store's v1 fixtures).
func goldenSeqs() []*core.Sequence {
	seqs := make([]*core.Sequence, 6)
	for i := range seqs {
		pts := make([]geom.Point, 12+4*i)
		for j := range pts {
			pts[j] = geom.Point{float64((13*i+2*j)%100) / 100, float64((29*i+j*j/4)%100) / 100, float64((7*i+3*j)%50) / 50}
		}
		seqs[i] = &core.Sequence{Label: fmt.Sprintf("g%d", i), Points: pts}
	}
	return seqs
}

// TestReadsV1Golden pins the v1 snapshot reader against a durability
// directory the v1 snapshot writer wrote at 413243b, the last commit
// that had one: AddAll of the first four golden sequences, Remove of the
// second, a checkpoint (base-2 holds sequences.mds, ids 0, 2, 3 of 4),
// then AddAll of the last two and an AppendPoints left in the WAL. It
// must open, answer Scan, Range and KNN bit-equal to a database taken
// through the same writes, and checkpoint into a v2 base that reopens to
// the same answers.
func TestReadsV1Golden(t *testing.T) {
	seqs := goldenSeqs()
	ref := newMem(t, 3)
	ids, err := ref.AddAll(seqs[:4])
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Remove(ids[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.AddAll(seqs[4:]); err != nil {
		t.Fatal(err)
	}
	if err := ref.AppendPoints(ids[2], seqs[0].Points[:5]); err != nil {
		t.Fatal(err)
	}
	queries := []*core.Sequence{
		{Points: seqs[1].Points[2:10]},
		{Points: seqs[2].Points[3:14]},
		{Points: seqs[4].Points[5:24]},
	}
	answers := func(db *DB) string {
		var b strings.Builder
		b.WriteString(fingerprint(t, db, queries, 0.3))
		for _, q := range queries {
			res, err := db.Do(context.Background(), core.Query{Seq: q, Kind: core.KNN, K: 4})
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range res.Matches {
				fmt.Fprintf(&b, ";%d %q@%x+%d", m.SeqID, m.Seq.Label, math.Float64bits(m.Dist), m.Offset)
			}
		}
		return b.String()
	}
	want := answers(ref)

	dir := copyDir(t, "testdata/v1durable")
	if got := snapshotPayload(t, dir); got != snapSeqFile {
		t.Fatalf("fixture base holds %s, want the v1 payload %s", got, snapSeqFile)
	}
	for _, quant := range []bool{false, true} {
		db := openFmt(t, dir, quant)
		if st := db.Stats(); st.RecoveredRecords != 2 {
			t.Errorf("replayed %d WAL records, want the fixture's 2", st.RecoveredRecords)
		}
		if got := answers(db); got != want {
			t.Fatalf("v1 directory (quant=%v) answers differ\nwant %s\ngot  %s", quant, want, got)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}

	db := openFmt(t, dir, false)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if got := snapshotPayload(t, dir); got != snapSegFile {
		t.Fatalf("checkpoint over a v1 base wrote %s, want %s", got, snapSegFile)
	}
	db = openFmt(t, dir, false)
	defer db.Close()
	if st := db.Stats(); st.RecoveredRecords != 0 {
		t.Errorf("replayed %d WAL records after the checkpoint, want 0", st.RecoveredRecords)
	}
	if got := answers(db); got != want {
		t.Fatalf("v2 base checkpointed from the v1 directory answers differ\nwant %s\ngot  %s", want, got)
	}
}

// TestSnapshotFormatV2NoHolesUsesPackedLeaves is a shape check: a
// checkpoint with no removals reloads through the packed-leaf bulk path
// and still fingerprints identically.
func TestSnapshotFormatV2NoHolesUsesPackedLeaves(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	dir := t.TempDir()
	db := openFmt(t, dir, false)
	var seqs []*core.Sequence
	for i := 0; i < 9; i++ {
		seqs = append(seqs, randSeq(rng, 3, 40))
	}
	if _, err := db.AddAll(seqs); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	queries := []*core.Sequence{{Points: seqs[2].Points[4:20]}}
	want := fingerprint(t, db, queries, 0.9)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := openFmt(t, dir, false)
	defer db2.Close()
	if got := fingerprint(t, db2, queries, 0.9); got != want {
		t.Fatalf("fingerprint drifted\nwant %s\ngot  %s", want, got)
	}
}
