package core

import (
	"context"
	"math/rand"
	"sync"
	"testing"
)

// TestConcurrentSearchers hammers Search and SearchBatchCtx from many
// goroutines at once; the race detector (go test -race) turns any shared
// mutable state into a failure.
func TestConcurrentSearchers(t *testing.T) {
	db := newTestDB(t, 3)
	rng := rand.New(rand.NewSource(122))
	populateWalks(t, db, 40, rng)
	queries := make([]*Sequence, 8)
	for i := range queries {
		queries[i] = randWalkSeq(rng, 25, 3)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				q := queries[(gi+i)%len(queries)]
				if gi%2 == 0 {
					if _, _, err := db.Search(q, 0.2); err != nil {
						errs <- err
						return
					}
				} else {
					if _, _, err := db.SearchBatchCtx(context.Background(), []*Sequence{q}, 0.2); err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
