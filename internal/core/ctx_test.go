package core

import (
	"context"
	"errors"
	"math"
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
	if _, err := knnBounded(ctx, db, q, 3, boundAt(1.0), nil); !errors.Is(err, context.DeadlineExceeded) {
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

// pollCtx counts the times a search asks whether it was canceled, and says
// yes from the cancelAt-th time on.
type pollCtx struct {
	context.Context
	polls, cancelAt int
}

func (c *pollCtx) Err() error {
	c.polls++
	if c.polls >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// TestDTWKNNPollsContextPerStep: the DTW-kNN refine loop polls its context
// once every cancelCheckEvery steps whatever the steps do. Here every
// candidate passes the envelope bound and falls to LB_Keogh — the query
// sits still at the centre of sequences that oscillate around it, so each
// MBR holds the query point while no data point does — and no exact distance
// is ever computed: a poll keyed on the count of refinements would happen on
// every step while that count sits at 0, and never once it left a multiple.
func TestDTWKNNPollsContextPerStep(t *testing.T) {
	const n, length, amp = 3*cancelCheckEvery + 10, 24, 0.01
	db, err := NewDatabase(Options{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for i := 0; i < n; i++ {
		pts := make([]geom.Point, length)
		for j := range pts {
			pts[j] = geom.Point{0.5 + amp*float64(2*(j%2)-1), 0.5}
		}
		if _, err := db.Add(&Sequence{Label: "s", Points: pts}); err != nil {
			t.Fatal(err)
		}
	}
	qpts := make([]geom.Point, length)
	for j := range qpts {
		qpts[j] = geom.Point{0.5, 0.5}
	}
	q := &Sequence{Label: "q", Points: qpts}
	mt := MetricDTW{Window: 4}
	// Do polls once before it dispatches, then each of the two loops
	// (envelope bound, refinement) at its steps 0, 64, 128 and 192.
	const perLoop = n/cancelCheckEvery + 1

	bound := boundAt(amp / 2)
	ctx := &pollCtx{Context: context.Background(), cancelAt: math.MaxInt}
	got, err := knnBounded(ctx, db, q, 3, bound, mt)
	if err != nil || len(got) != 0 {
		t.Fatalf("%d neighbors, err %v: every sequence is %g away and the bound is at %g", len(got), err, amp, amp/2)
	}
	if c := bound.Counts(); c.KeoghPruned != n || c.Refined != 0 {
		t.Fatalf("account %+v: the test needs all %d candidates dismissed by LB_Keogh", c, n)
	}
	if ctx.polls != 1+2*perLoop {
		t.Fatalf("context polled %d times over %d candidates, want %d", ctx.polls, n, 1+2*perLoop)
	}

	// Canceled at the refine loop's second poll: noticed there, and a
	// canceled query records nothing.
	bound = boundAt(amp / 2)
	ctx = &pollCtx{Context: context.Background(), cancelAt: 1 + perLoop + 2}
	if _, err := knnBounded(ctx, db, q, 3, bound, mt); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if c := bound.Counts(); c != (KNNCounts{}) {
		t.Fatalf("canceled query recorded %+v", c)
	}
}
