package txn

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pager"
)

// Tests for the two halves of a checkpoint: a fold every CheckpointEvery
// records, a persist (snapshot, CURRENT, WAL compaction) only once the
// WAL has outgrown the promoted snapshot — and recovery from every state
// that schedule leaves on disk.

// waitGoroutines waits up to 2 s for the goroutine count to fall back to
// base: everything a test started must have ended.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for n := runtime.NumGoroutine(); n > base; n = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines still running after 2 s, %d before:\n%s",
				n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// waitFolds waits until db has completed n checkpoints and the last one
// has returned (it holds ckptMu through snapshot pruning), so the
// directory is quiescent.
func waitFolds(t *testing.T, db *DB, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for db.Stats().Checkpoints < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for checkpoint %d (have %d)", n, db.Stats().Checkpoints)
		}
		time.Sleep(time.Millisecond)
	}
	db.ckptMu.Lock()
	db.ckptMu.Unlock()
}

// promoted returns the snapshot directory CURRENT names and the bytes of
// its segment and meta files ("", 0 without one).
func promoted(t *testing.T, dir string) (name string, size int64) {
	t.Helper()
	cur, err := os.ReadFile(filepath.Join(dir, currentFile))
	if os.IsNotExist(err) {
		return "", 0
	}
	if err != nil {
		t.Fatal(err)
	}
	name = strings.TrimSpace(string(cur))
	for _, f := range []string{snapSegFile, snapMeta} {
		if fi, err := os.Stat(filepath.Join(dir, name, f)); err == nil {
			size += fi.Size()
		}
	}
	return name, size
}

// walLSNs lists the LSNs of the records in a copy of dir's WAL.
func walLSNs(t *testing.T, dir string) []uint64 {
	t.Helper()
	var lsns []uint64
	l, err := pager.OpenLog(filepath.Join(copyDir(t, dir), walFile), func(p []byte) error {
		lsn, _, err := decodeRecord(p, 2)
		lsns = append(lsns, lsn)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	return lsns
}

// reopenEquals opens a copy of a durability directory and requires the
// fingerprint of what it recovered to be want.
func reopenEquals(t *testing.T, dir string, queries []*core.Sequence, want, what string) {
	t.Helper()
	db, err := Open(Options{Dir: dir, Dim: 2})
	if err != nil {
		t.Fatalf("%s: reopen: %v", what, err)
	}
	got := fingerprint(t, db, queries, 3)
	db.Close()
	if got != want {
		t.Fatalf("%s: recovered state is not the acknowledged prefix\n got %s\nwant %s", what, got, want)
	}
}

// TestCheckpointPersistsWhenLogOutgrowsSnapshot drives a 200-sequence
// base through automatic folds every 4 records and checks the rule at
// each one: the fold persists exactly when the WAL holds at least the
// promoted snapshot's bytes. A persist promotes the cut and compacts the
// WAL to nothing (no record follows the cut); in between, checkpoint_lsn
// and CURRENT stand still and the WAL only grows. Answers equal a
// reference database after every fold.
func TestCheckpointPersistsWhenLogOutgrowsSnapshot(t *testing.T) {
	const every = 4
	rng := rand.New(rand.NewSource(27))
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, Dim: 2, NoFsync: true, CheckpointEvery: every})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	ref := newRef(t, 2)
	seqs := make([]*core.Sequence, 200)
	for i := range seqs {
		seqs[i] = walkSeq(rng, 2, 12)
	}
	ids, err := db.AddAll(seqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range seqs {
		if _, err := ref.Add(clonePoints(s)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil { // explicit: always persists
		t.Fatal(err)
	}
	queries := []*core.Sequence{walkSeq(rng, 2, 10), walkSeq(rng, 2, 16)}
	var live []uint32 // ids added by the stream
	folds := db.Stats().Checkpoints
	wal := db.Stats().WALSizeBytes
	persists, foldOnly := 0, 0
	for i := 1; i <= 1000; i++ {
		kicks := i%every == 0
		if kicks {
			db.ckptMu.Lock() // the kicked fold waits until the rule's inputs are read
		}
		// Adds are long and removes take back adds, so the WAL outgrows a
		// snapshot that stays near the base's size several times over.
		switch k := rng.Intn(10); {
		case k < 4 || len(live) == 0:
			s := walkSeq(rng, 2, 48)
			id, err := db.Add(clonePoints(s))
			if err != nil {
				t.Fatal(err)
			}
			if rid, err := ref.Add(clonePoints(s)); err != nil || rid != id {
				t.Fatalf("ref Add: id %d vs %d, err %v", rid, id, err)
			}
			live = append(live, id)
		case k < 6:
			id := ids[rng.Intn(len(ids))]
			ext := walkSeq(rng, 2, 1+rng.Intn(4)).Points
			if err := db.AppendPoints(id, ext); err != nil {
				t.Fatal(err)
			}
			if err := ref.AppendPoints(id, ext); err != nil {
				t.Fatal(err)
			}
		default:
			j := rng.Intn(len(live))
			if err := db.Remove(live[j]); err != nil {
				t.Fatal(err)
			}
			if err := ref.Remove(live[j]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:j], live[j+1:]...)
		}
		if !kicks {
			continue
		}
		before := db.Stats()
		name, snapBytes := promoted(t, dir)
		if before.WALSizeBytes <= wal {
			t.Fatalf("fold %d: WAL did not grow between folds (%d after %d)", folds+1, before.WALSizeBytes, wal)
		}
		db.ckptMu.Unlock()
		folds++
		waitFolds(t, db, folds)
		after := db.Stats()
		gotName, _ := promoted(t, dir)
		if before.WALSizeBytes >= snapBytes {
			persists++
			if after.CheckpointLSN != before.LastLSN || gotName != snapName(before.LastLSN) {
				t.Fatalf("fold %d: WAL %d B ≥ snapshot %d B, but checkpoint_lsn %d and CURRENT %s, want %d and %s",
					folds, before.WALSizeBytes, snapBytes, after.CheckpointLSN, gotName, before.LastLSN, snapName(before.LastLSN))
			}
			if after.WALSizeBytes != pager.LogHeaderSize {
				t.Fatalf("fold %d: persist left a %d-byte WAL, want it compacted to the header", folds, after.WALSizeBytes)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if strings.HasPrefix(e.Name(), snapPrefix) && e.Name() != gotName {
					t.Fatalf("fold %d: old snapshot %s not pruned", folds, e.Name())
				}
			}
		} else {
			foldOnly++
			if after.CheckpointLSN != before.CheckpointLSN || gotName != name {
				t.Fatalf("fold %d: WAL %d B < snapshot %d B, but checkpoint_lsn %d → %d, CURRENT %s → %s",
					folds, before.WALSizeBytes, snapBytes, before.CheckpointLSN, after.CheckpointLSN, name, gotName)
			}
			if after.WALSizeBytes != before.WALSizeBytes {
				t.Fatalf("fold %d: a fold-only checkpoint changed the WAL (%d → %d B)", folds, before.WALSizeBytes, after.WALSizeBytes)
			}
		}
		wal = after.WALSizeBytes
		if after.DeltaAdds+after.DeltaOverlays+after.DeltaRemoved != 0 {
			t.Fatalf("fold %d left a delta: %+v", folds, after)
		}
		if got, want := fingerprint(t, db, queries, 0.3), fingerprint(t, ref, queries, 0.3); got != want {
			t.Fatalf("fold %d: answers diverge from the reference\n got %s\nwant %s", folds, got, want)
		}
	}
	t.Logf("%d folds: %d persisted, %d fold-only", persists+foldOnly, persists, foldOnly)
	if persists < 3 || foldOnly < 3*persists {
		t.Fatalf("%d persists and %d fold-only checkpoints: the stream does not exercise the rule", persists, foldOnly)
	}
}

// TestCrashAfterAckFoldOnly is TestCrashAfterAck under the automatic
// cadence, so several fold-only checkpoints fall between persists: the
// directory is copied after every ack, after every fold, and — for a fold
// that persisted — in the state between promotion and compaction (the
// new CURRENT beside the whole WAL). Every copy reopens to exactly the
// acknowledged prefix, ids included.
func TestCrashAfterAckFoldOnly(t *testing.T) {
	const every = 3
	rng := rand.New(rand.NewSource(28))
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, Dim: 2, CheckpointEvery: every})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	ref := newRef(t, 2)
	queries := []*core.Sequence{randSeq(rng, 2, 8), randSeq(rng, 2, 10)}
	var live []uint32
	var folds uint64
	persists, foldOnly := 0, 0
	for i := 1; i <= 90; i++ {
		kicks := i%every == 0
		if kicks {
			db.ckptMu.Lock() // hold the kicked fold until the ack's copy is taken
		}
		driveOps(t, rng, db, ref, &live, 2)
		want := fingerprint(t, ref, queries, 3)
		reopenEquals(t, copyDir(t, dir), queries, want, fmt.Sprintf("ack %d", i))
		if !kicks {
			continue
		}
		wal, err := os.ReadFile(filepath.Join(dir, walFile))
		if err != nil {
			t.Fatal(err)
		}
		ckpt := db.Stats().CheckpointLSN
		db.ckptMu.Unlock()
		folds++
		waitFolds(t, db, folds)
		after := copyDir(t, dir)
		reopenEquals(t, after, queries, want, fmt.Sprintf("fold after ack %d", i))
		if db.Stats().CheckpointLSN == ckpt {
			foldOnly++
			continue
		}
		persists++
		if err := os.WriteFile(filepath.Join(after, walFile), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		reopenEquals(t, after, queries, want, fmt.Sprintf("promoted, not compacted, after ack %d", i))
	}
	t.Logf("%d folds: %d persisted, %d fold-only", folds, persists, foldOnly)
	if persists < 2 || foldOnly < 2*persists {
		t.Fatalf("%d persists and %d fold-only checkpoints: the cadence was not exercised", persists, foldOnly)
	}
}

// TestReopenFoldsLongTail: a node reopened over a replayed tail of at
// least CheckpointEvery records folds it at once, with no write to kick
// the pacer — it used to serve the whole tail from the unindexed delta
// until the next commit.
func TestReopenFoldsLongTail(t *testing.T) {
	const every = 4
	rng := rand.New(rand.NewSource(29))
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, Dim: 2})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ref := newRef(t, 2)
	for i := 0; i < 3*every; i++ {
		s := randSeq(rng, 2, 8+rng.Intn(16))
		id, err := db.Add(clonePoints(s))
		if err != nil {
			t.Fatal(err)
		}
		if rid, err := ref.Add(clonePoints(s)); err != nil || rid != id {
			t.Fatalf("ref Add: id %d vs %d, err %v", rid, id, err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	queries := []*core.Sequence{randSeq(rng, 2, 8), randSeq(rng, 2, 12)}
	want := fingerprint(t, ref, queries, 3)

	db2, err := Open(Options{Dir: dir, Dim: 2, CheckpointEvery: every})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	deadline := time.Now().Add(2 * time.Second)
	for db2.Stats().DeltaAdds != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("2 s after reopening, %d replayed adds are still served from the delta", db2.Stats().DeltaAdds)
		}
		time.Sleep(time.Millisecond)
	}
	if got := fingerprint(t, db2, queries, 3); got != want {
		t.Fatalf("folded replay diverges\n got %s\nwant %s", got, want)
	}
}

// TestCompactionFailureKeepsLog squats the compaction's temp file with a
// directory, so the WAL rewrite fails at a persist after the snapshot is
// promoted. Commits keep being acknowledged, the WAL keeps every record
// after the old snapshot, a copy of the directory reopens to the
// acknowledged prefix, and once the squatter is gone the next persist
// compacts.
func TestCompactionFailureKeepsLog(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, Dim: 2})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	ref := newRef(t, 2)
	queries := []*core.Sequence{randSeq(rng, 2, 8), randSeq(rng, 2, 10)}
	var live []uint32
	drive := func(n int) {
		for i := 0; i < n; i++ {
			driveOps(t, rng, db, ref, &live, 2)
		}
	}
	drive(10)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	old := db.Stats().CheckpointLSN
	drive(10)

	squat := filepath.Join(dir, walFile+".tmp")
	if err := os.Mkdir(squat, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(squat, "squatter"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err == nil {
		t.Fatal("compaction into a squatted temp file reported success")
	}
	if s := db.Stats(); s.CheckpointLSN != s.LastLSN {
		t.Fatalf("checkpoint_lsn %d, want the promoted cut %d", s.CheckpointLSN, s.LastLSN)
	}
	drive(10) // driveOps fails the test on any unacknowledged commit
	last := db.Stats().LastLSN
	lsns := walLSNs(t, dir)
	if uint64(len(lsns)) != last-old || lsns[0] != old+1 || lsns[len(lsns)-1] != last {
		t.Fatalf("WAL holds LSNs %v, want every record after the old snapshot (%d, %d]", lsns, old, last)
	}
	reopenEquals(t, copyDir(t, dir), queries, fingerprint(t, ref, queries, 3), "failed compaction")

	if err := os.RemoveAll(squat); err != nil {
		t.Fatal(err)
	}
	drive(3)
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after the squatter left: %v", err)
	}
	if s := db.Stats(); s.WALSizeBytes != pager.LogHeaderSize {
		t.Fatalf("WAL is %d bytes after a clean persist, want it compacted to the header", s.WALSizeBytes)
	}
	reopenEquals(t, copyDir(t, dir), queries, fingerprint(t, ref, queries, 3), "compaction after recovery")
}

// TestCompactionKeepsCommitsAfterTheCut lands commits between a
// checkpoint's cut and its compaction (the checkpoint is held open after
// its cut meanwhile), so the compacted WAL begins with records the
// snapshot does not hold and whose offsets moved. A second persist with
// nothing newer must then cut exactly those records away.
func TestCompactionKeepsCommitsAfterTheCut(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, Dim: 2})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	ref := newRef(t, 2)
	queries := []*core.Sequence{randSeq(rng, 2, 8), randSeq(rng, 2, 10)}
	var live []uint32
	for i := 0; i < 6; i++ {
		driveOps(t, rng, db, ref, &live, 2)
	}
	cutTaken, resume := make(chan struct{}), make(chan struct{})
	db.afterCut = func() { close(cutTaken); <-resume }
	done := make(chan error, 1)
	go func() { done <- db.Checkpoint() }()
	<-cutTaken
	for i := 0; i < 5; i++ {
		driveOps(t, rng, db, ref, &live, 2)
	}
	close(resume)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	db.afterCut = nil
	s := db.Stats()
	if lsns := walLSNs(t, dir); len(lsns) != 5 || lsns[0] != s.CheckpointLSN+1 || lsns[4] != s.LastLSN {
		t.Fatalf("compacted WAL holds LSNs %v, want the 5 after the cut %d", lsns, s.CheckpointLSN)
	}
	want := fingerprint(t, ref, queries, 3)
	reopenEquals(t, copyDir(t, dir), queries, want, "records after the cut")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if s := db.Stats(); s.WALSizeBytes != pager.LogHeaderSize {
		t.Fatalf("WAL is %d bytes after folding the records kept by the last compaction, want the header alone", s.WALSizeBytes)
	}
	reopenEquals(t, copyDir(t, dir), queries, want, "second compaction")
}

// TestCloseLeavesNoGoroutines closes a database with a fold in flight
// (held open after its cut) and, in the second case, another fold kicked
// behind it that has not started: once the fold is let go Close returns
// and every goroutine the database started ends.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	for _, queued := range []bool{false, true} {
		const every = 2
		rng := rand.New(rand.NewSource(31))
		base := runtime.NumGoroutine()
		db, err := Open(Options{Dir: t.TempDir(), Dim: 2, CheckpointEvery: every})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		cutTaken, resume := make(chan struct{}, 1), make(chan struct{})
		db.afterCut = func() {
			select {
			case cutTaken <- struct{}{}:
			default:
			}
			<-resume
		}
		add := func() {
			for i := 0; i < every; i++ {
				if _, err := db.Add(randSeq(rng, 2, 8)); err != nil {
					t.Fatal(err)
				}
			}
		}
		add()
		select {
		case <-cutTaken:
		case <-time.After(5 * time.Second):
			t.Fatal("the kicked fold never started")
		}
		if queued {
			add()
			if len(db.ckptKick) != 1 {
				t.Fatal("no fold kicked behind the one in flight")
			}
		}
		closed := make(chan error, 1)
		go func() { closed <- db.Close() }()
		for !db.closed.Load() {
			time.Sleep(time.Millisecond)
		}
		close(resume)
		select {
		case err := <-closed:
			if err != nil {
				t.Fatalf("queued=%v: Close: %v", queued, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("queued=%v: Close did not return after the fold was let go", queued)
		}
		waitGoroutines(t, base)
	}
}
