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

// openFmt opens a durable DB in dir.
func openFmt(t *testing.T, dir string) *DB {
	t.Helper()
	db, err := Open(Options{Dir: dir, Dim: 3, NoFsync: true})
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
// ids) and verifies a reopen restores a byte-identical database. Checkpoints write v2 only; the v1
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
	db := openFmt(t, dir)
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
	db2 := openFmt(t, dir)
	if got := fingerprint(t, db2, queries, 0.9); got != want {
		t.Fatalf("reopened: fingerprint drifted\nwant %s\ngot  %s", want, got)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
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
	db := openFmt(t, dir)
	if st := db.Stats(); st.RecoveredRecords != 2 {
		t.Errorf("replayed %d WAL records, want the fixture's 2", st.RecoveredRecords)
	}
	if got := answers(db); got != want {
		t.Fatalf("v1 directory answers differ\nwant %s\ngot  %s", want, got)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db = openFmt(t, dir)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if got := snapshotPayload(t, dir); got != snapSegFile {
		t.Fatalf("checkpoint over a v1 base wrote %s, want %s", got, snapSegFile)
	}
	db = openFmt(t, dir)
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
	db := openFmt(t, dir)
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
	db2 := openFmt(t, dir)
	defer db2.Close()
	if got := fingerprint(t, db2, queries, 0.9); got != want {
		t.Fatalf("fingerprint drifted\nwant %s\ngot  %s", want, got)
	}
}

// TestSnapshotWithHolesReopensByBulkLoad: a snapshot whose store removed
// sequences — the first id, the last of the first load, a run of
// neighbours, and an add removed before any fold held it — reopens
// through the bulk load with every id where it was, and each of its
// answers is the scan's: the exact range under D at three thresholds and
// the kNN at k = 1, 5 and past the live count.
func TestSnapshotWithHolesReopensByBulkLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	dir := t.TempDir()
	db := openFmt(t, dir)
	seqs := make([]*core.Sequence, 40)
	for i := range seqs {
		seqs[i] = walkSeq(rng, 3, 10+rng.Intn(60))
	}
	ids, err := db.AddAll(seqs)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	added, err := db.Add(walkSeq(rng, 3, 30))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []uint32{ids[0], ids[7], ids[8], ids[9], ids[39], added} {
		if err := db.Remove(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Add(walkSeq(rng, 3, 25)); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	idsOf := func(db *DB) string {
		var b strings.Builder
		for _, s := range db.Sequences() {
			fmt.Fprintf(&b, "%d:%d,", s.ID, s.Len())
		}
		return b.String()
	}
	want := idsOf(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db = openFmt(t, dir)
	defer db.Close()
	if s := db.Stats(); s.RecoveredRecords != 0 || s.DeltaAdds != 0 {
		t.Fatalf("reopen replayed %d records (delta %d adds); the snapshot should hold them all", s.RecoveredRecords, s.DeltaAdds)
	}
	if got := idsOf(db); got != want {
		t.Fatalf("reopened ids\n got %s\nwant %s", got, want)
	}
	byID := func(ms []core.Match) string {
		var b strings.Builder
		for _, m := range ms {
			fmt.Fprintf(&b, "%d:%x,", m.SeqID, math.Float64bits(m.Dist))
		}
		return b.String()
	}
	queries := []*core.Sequence{walkSeq(rng, 3, 20), walkSeq(rng, 3, 5)}
	for _, i := range []int{3, 12, 38} {
		queries = append(queries, &core.Sequence{Points: seqs[i].Points[2:9]})
	}
	held := 0
	for qi, q := range queries {
		for _, eps := range []float64{0.05, 0.2, 0.6} {
			res, err := db.Do(context.Background(), core.Query{Seq: q, Eps: eps, Metric: core.MetricD{}})
			if err != nil {
				t.Fatal(err)
			}
			scan, err := scanMetric(db, q, eps, core.MetricD{})
			if err != nil {
				t.Fatal(err)
			}
			if byID(res.Matches) != byID(scan) {
				t.Fatalf("query %d eps %g: range answer is not the scan's:\n got %s\nscan %s", qi, eps, byID(res.Matches), byID(scan))
			}
			held += len(scan)
		}
		ranked := rankedScan(t, db, q, core.MetricD{})
		for _, k := range []int{1, 5, db.Len() + 5} {
			res, err := db.Do(context.Background(), core.Query{Seq: q, Kind: core.KNN, K: k})
			if err != nil {
				t.Fatal(err)
			}
			if want := ranked[:min(k, len(ranked))]; byID(res.Matches) != byID(want) {
				t.Fatalf("query %d k %d: neighbors are not the scan's nearest:\n got %s\nscan %s", qi, k, byID(res.Matches), byID(want))
			}
			held += len(res.Matches)
		}
	}
	if held < 100 {
		t.Fatalf("only %d matches and neighbors held to the scan", held)
	}
}
