package txn

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// TestSearchUnderConcurrentIngest is the MVCC acceptance test: while a
// writer streams commits (with automatic checkpoints folding the delta
// underneath), readers pin snapshots and must get byte-identical answers
// to a quiesced reference database holding the same epoch's content.
//
// The writer maintains the reference: after every few acks it fingerprints
// the reference corpus and publishes epoch → expected under a lock. A
// reader that pins one of those epochs mid-ingest must reproduce the
// fingerprint exactly — range matches, exact distances, solution
// intervals, scan baseline, id list.
func TestSearchUnderConcurrentIngest(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	base, err := core.NewDatabase(core.Options{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	db, err := Wrap(base, Options{GroupWindow: 0, CheckpointEvery: 25})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ref := newRef(t, 2)
	queries := []*core.Sequence{randSeq(rng, 2, 8), randSeq(rng, 2, 12)}
	const eps = 3.0

	// Seed corpus, identically on both sides.
	var live []uint32
	for i := 0; i < 30; i++ {
		s := randSeq(rng, 2, 8+rng.Intn(16))
		id, err := db.Add(clonePoints(s))
		if err != nil {
			t.Fatal(err)
		}
		if rid, err := ref.Add(clonePoints(s)); err != nil || rid != id {
			t.Fatalf("ref seed: %d vs %d, %v", rid, id, err)
		}
		live = append(live, id)
	}

	var mu sync.Mutex // guards expected
	expected := map[uint64]string{}
	writerDone := make(chan struct{})
	var failed atomic.Bool

	go func() {
		defer close(writerDone)
		wrng := rand.New(rand.NewSource(31))
		for i := 0; i < 240 && !failed.Load(); i++ {
			driveOps(t, wrng, db, ref, &live, 2)
			if i%6 == 0 {
				// Single writer: content only changes at our own commits,
				// and checkpoint rebases preserve content, so whatever
				// epoch is published right now holds exactly ref's corpus.
				fp := fingerprint(t, ref, queries, eps)
				mu.Lock()
				expected[db.Epoch()] = fp
				mu.Unlock()
			}
		}
	}()

	var wg sync.WaitGroup
	var checked atomic.Int64
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for {
				select {
				case <-writerDone:
					return
				default:
				}
				snap := db.Acquire()
				mu.Lock()
				want, ok := expected[snap.Epoch()]
				mu.Unlock()
				if ok {
					got := fingerprint(t, snap, queries, eps)
					if got != want {
						failed.Store(true)
						t.Errorf("epoch %d mid-ingest read diverges from quiesced reference\n got %s\nwant %s",
							snap.Epoch(), got, want)
						snap.Release()
						return
					}
					checked.Add(1)
				}
				snap.Release()
			}
		}(int64(40 + r))
	}
	wg.Wait()
	<-writerDone
	if n := checked.Load(); n < 5 {
		t.Fatalf("readers verified only %d mid-ingest snapshots against the reference", n)
	}

	// Quiesce and compare the final corpus end to end, then once more
	// after folding everything into the base index.
	want := fingerprint(t, ref, queries, eps)
	if got := fingerprint(t, db, queries, eps); got != want {
		t.Fatalf("quiesced state diverges\n got %s\nwant %s", got, want)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("final checkpoint: %v", err)
	}
	if got := fingerprint(t, db, queries, eps); got != want {
		t.Fatalf("post-fold state diverges\n got %s\nwant %s", got, want)
	}
}

// TestMixedReadWriteSoak hammers the transaction layer from concurrent
// writers (each owning its ids) and readers, with group commit and
// automatic checkpoints on. It asserts only invariants — no operation
// errors, snapshots internally consistent — and exists chiefly to give
// the race detector surface area; CI runs it with -race.
func TestMixedReadWriteSoak(t *testing.T) {
	base, err := core.NewDatabase(core.Options{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	db, err := Wrap(base, Options{GroupWindow: 100 * time.Microsecond, CheckpointEvery: 40})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const writers, readers, opsPerWriter = 4, 4, 120
	var wWG, rWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wWG.Add(1)
		go func(seed int64) {
			defer wWG.Done()
			rng := rand.New(rand.NewSource(seed))
			var mine []uint32
			for i := 0; i < opsPerWriter; i++ {
				switch k := rng.Intn(10); {
				case k < 6 || len(mine) == 0:
					id, err := db.Add(randSeq(rng, 2, 6+rng.Intn(10)))
					if err != nil {
						t.Errorf("Add: %v", err)
						return
					}
					mine = append(mine, id)
				case k < 8:
					id := mine[rng.Intn(len(mine))]
					if err := db.AppendPoints(id, randSeq(rng, 2, 1+rng.Intn(3)).Points); err != nil {
						t.Errorf("AppendPoints(%d): %v", id, err)
						return
					}
				default:
					j := rng.Intn(len(mine))
					if err := db.Remove(mine[j]); err != nil {
						t.Errorf("Remove(%d): %v", mine[j], err)
						return
					}
					mine = append(mine[:j], mine[j+1:]...)
				}
			}
		}(int64(50 + w))
	}
	for r := 0; r < readers; r++ {
		rWG.Add(1)
		go func(seed int64) {
			defer rWG.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := randSeq(rng, 2, 6+rng.Intn(6))
				snap := db.Acquire()
				ms, _, err := searchOn(snap, q, 2)
				if err != nil {
					t.Errorf("Search: %v", err)
					snap.Release()
					return
				}
				for i := 1; i < len(ms); i++ {
					if ms[i-1].SeqID >= ms[i].SeqID {
						t.Errorf("results out of id order: %d then %d", ms[i-1].SeqID, ms[i].SeqID)
						snap.Release()
						return
					}
				}
				if n := snap.Len(); len(ms) > n {
					t.Errorf("%d matches from a %d-sequence snapshot", len(ms), n)
					snap.Release()
					return
				}
				snap.Release()
			}
		}(int64(60 + r))
	}

	wWG.Wait()
	close(stop)
	rWG.Wait()

	s := db.Stats()
	if s.Commits == 0 || s.SnapshotsPinned != 0 {
		t.Fatalf("soak end state: %+v", s)
	}
}
