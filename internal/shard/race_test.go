package shard

// Concurrency hammer for the serving interface: mixed Add / Remove /
// AppendPoints / Search / SearchKNN traffic from many goroutines against
// both implementations of DB. Run with -race (the CI workflow does); the
// final assertion cross-checks that the sharded database's answers are
// permutation-equal to a single-node database rebuilt from the same
// surviving corpus.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
)

func hammer(t *testing.T, db DB, seed int64) {
	t.Helper()
	const (
		writers  = 4
		readers  = 4
		opsEach  = 25
		seqLen   = 32
		appendsN = 4
	)

	// Seed corpus so readers always have something to chew on.
	base := corpus(t, 16, seqLen, seed)
	ids, err := db.AddAll(clone(base))
	if err != nil {
		t.Fatal(err)
	}
	query := &core.Sequence{Label: "query", Points: clone(base)[3].Points[:12]}

	var wg sync.WaitGroup
	errc := make(chan error, writers+readers)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			for op := 0; op < opsEach; op++ {
				switch op % 3 {
				case 0: // add a fresh labeled sequence
					pts := make([]geom.Point, seqLen)
					for i := range pts {
						pts[i] = geom.Point{rng.Float64(), rng.Float64(), rng.Float64()}
					}
					s := &core.Sequence{Label: fmt.Sprintf("w%d-op%d", w, op), Points: pts}
					if _, err := db.Add(s); err != nil {
						errc <- err
						return
					}
				case 1: // remove one of the seed ids (errors for repeats are expected)
					id := ids[rng.Intn(len(ids))]
					_ = db.Remove(id)
				case 2: // append to a seed id that may have been removed
					id := ids[rng.Intn(len(ids))]
					_ = db.AppendPoints(id, []geom.Point{{0.4, 0.4, 0.4}, {0.6, 0.6, 0.6}})
				}
			}
		}(w)
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for op := 0; op < opsEach; op++ {
				switch op % 4 {
				case 0:
					if _, _, err := db.SearchCtx(context.Background(), query, 0.25); err != nil {
						errc <- err
						return
					}
				case 1:
					if _, _, err := db.SearchBatchCtx(context.Background(), []*core.Sequence{query}, 0.25); err != nil {
						errc <- err
						return
					}
				case 2:
					if _, err := db.SearchKNNCtx(context.Background(), query, 5); err != nil {
						errc <- err
						return
					}
				case 3:
					db.Len()
					db.NumMBRs()
				}
			}
		}(r)
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

func TestConcurrentMixedWorkloadSingle(t *testing.T) {
	db, err := core.NewDatabase(core.Options{Dim: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	hammer(t, db, 100)
}

func TestConcurrentMixedWorkloadSharded(t *testing.T) {
	for _, n := range []int{2, 5} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			sdb, err := New(core.Options{Dim: 3}, n)
			if err != nil {
				t.Fatal(err)
			}
			defer sdb.Close()
			hammer(t, sdb, 200+int64(n))

			// Quiesced: the sharded answers must be permutation-equal to a
			// single-node database holding the identical surviving corpus.
			single := newSingle(t, clone(sdb.Sequences()))
			q := &core.Sequence{Label: "query", Points: corpus(t, 4, 32, 200+int64(n))[3].Points[:12]}
			want, _, err := single.SearchCtx(context.Background(), q, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := sdb.SearchCtx(context.Background(), q, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(matchKeys(t, got), matchKeys(t, want)) {
				t.Fatalf("post-hammer sharded search diverges:\n got %v\nwant %v",
					matchKeys(t, got), matchKeys(t, want))
			}
			wantNN, err := single.SearchKNNCtx(context.Background(), q, 7)
			if err != nil {
				t.Fatal(err)
			}
			gotNN, err := sdb.SearchKNNCtx(context.Background(), q, 7)
			if err != nil {
				t.Fatal(err)
			}
			if len(gotNN) != len(wantNN) {
				t.Fatalf("post-hammer kNN sizes diverge: %d vs %d", len(gotNN), len(wantNN))
			}
			for i := range gotNN {
				if gotNN[i].Seq.Label != wantNN[i].Seq.Label {
					t.Fatalf("post-hammer kNN rank %d: %q vs %q",
						i, gotNN[i].Seq.Label, wantNN[i].Seq.Label)
				}
			}
		})
	}
}
