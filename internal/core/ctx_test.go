package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/geom"
)

// ctxCorpus builds a small database for the cancellation tests.
func ctxCorpus(t *testing.T, n int) (*Database, *Sequence) {
	t.Helper()
	db, err := NewDatabase(Options{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	var q *Sequence
	for i := 0; i < n; i++ {
		pts := make([]geom.Point, 48)
		for j := range pts {
			pts[j] = geom.Point{float64(i%7) / 7, float64(j%11) / 11}
		}
		s, err := NewSequence("s", pts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.Add(s); err != nil {
			t.Fatal(err)
		}
		if q == nil {
			q = &Sequence{Label: "q", Points: s.Points[:16]}
		}
	}
	return db, q
}

// TestSearchCtxCanceled proves an already-fired context aborts both query
// paths with the context's error, before any result is produced.
func TestSearchCtxCanceled(t *testing.T) {
	db, q := ctxCorpus(t, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := db.SearchCtx(ctx, q, 0.2); !errors.Is(err, context.Canceled) {
		t.Fatalf("SearchCtx on canceled ctx: err = %v, want context.Canceled", err)
	}
	if _, err := db.SearchKNNCtx(ctx, q, 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("SearchKNNCtx on canceled ctx: err = %v, want context.Canceled", err)
	}
}

// TestSearchCtxDeadline proves an expired deadline surfaces as
// context.DeadlineExceeded through the wrapped error.
func TestSearchCtxDeadline(t *testing.T) {
	db, q := ctxCorpus(t, 8)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, _, err := db.SearchCtx(ctx, q, 0.2); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("SearchCtx past deadline: err = %v, want context.DeadlineExceeded", err)
	}
	if _, err := db.SearchKNNBoundedCtx(ctx, q, 3, boundAt(1.0)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("SearchKNNBoundedCtx past deadline: err = %v, want context.DeadlineExceeded", err)
	}
}

// TestSearchCtxBackgroundMatchesSearch pins that the ctx variants with a
// background context are the plain methods exactly.
func TestSearchCtxBackgroundMatchesSearch(t *testing.T) {
	db, q := ctxCorpus(t, 12)
	want, wantSt, err := db.Search(q, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	got, gotSt, err := db.SearchCtx(context.Background(), q, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || gotSt.CandidatesDmbr != wantSt.CandidatesDmbr {
		t.Fatalf("SearchCtx(Background) diverges: %d/%d matches, %d/%d candidates",
			len(got), len(want), gotSt.CandidatesDmbr, wantSt.CandidatesDmbr)
	}
	wantNN, err := db.SearchKNN(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	gotNN, err := db.SearchKNNCtx(context.Background(), q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotNN) != len(wantNN) {
		t.Fatalf("SearchKNNCtx(Background) diverges: %d vs %d neighbors", len(gotNN), len(wantNN))
	}
}
