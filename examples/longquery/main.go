// Longquery demonstrates the paper's "long query" case (Section 1): the
// query sequence is LONGER than the stored data sequences — "Find video
// streams in a database to which the sub-streams of a given video are
// similar." Definition 3 handles this by sliding the shorter side (here,
// each data sequence) inside the longer query. Run with:
//
//	go run ./examples/longquery
package main

import (
	"fmt"
	"log"
	"math/rand"

	mdseq "repro"
	"repro/internal/fractal"
	"repro/internal/geom"
)

func main() {
	db, err := mdseq.Open(mdseq.Options{Dim: 3})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	rng := rand.New(rand.NewSource(321))

	// Short clips in the database.
	var clips []*mdseq.Sequence
	for i := 0; i < 30; i++ {
		clip, err := fractal.Generate(rng, 30+rng.Intn(30), fractal.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		clip.Label = fmt.Sprintf("clip-%02d", i)
		clips = append(clips, clip)
	}
	if _, err := db.AddAll(clips); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("database: %d short clips (30-60 points each)\n", db.Len())

	// A long query stream that contains noisy copies of clips 5 and 21.
	var qpts []geom.Point
	appendNoisy := func(src *mdseq.Sequence) (start, end int) {
		start = len(qpts)
		for i := range src.Len() {
			q := src.At(i).Clone()
			for k := range q {
				q[k] += (rng.Float64() - 0.5) * 0.02
			}
			qpts = append(qpts, q.Clamp(0, 1))
		}
		return start, len(qpts)
	}
	pad := func(n int) {
		filler, err := fractal.Generate(rng, n, fractal.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		qpts = append(qpts, filler.Slice(0, filler.Len())...)
	}
	pad(120)
	a0, a1 := appendNoisy(clips[5])
	pad(150)
	b0, b1 := appendNoisy(clips[21])
	pad(100)
	query := &mdseq.Sequence{Label: "long-stream", Points: qpts}
	fmt.Printf("query: %d points — longer than every stored clip\n", query.Len())
	fmt.Printf("embedded clip-05 at [%d,%d) and clip-21 at [%d,%d)\n\n", a0, a1, b0, b1)

	const eps = 0.05
	matches, stats, err := db.Search(query, eps)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("search (eps=%.2f): %d candidates -> %d matches\n", eps, stats.CandidatesDmbr, stats.MatchesDnorm)
	for _, m := range matches {
		d := mdseq.D(query, m.Seq)
		fmt.Printf("  %s  D(query, clip)=%.4f\n", m.Seq.Label, d)
	}

	// Cross-check with the exact scan.
	exact, err := db.SequentialSearch(query, eps)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsequential scan agrees on %d relevant clips:\n", len(exact))
	for _, r := range exact {
		off, _ := mdseq.BestAlignment(r.Seq.Slice(0, r.Seq.Len()), qpts)
		fmt.Printf("  %s matches the query around offset %d (embedded at %d / %d)\n",
			r.Seq.Label, off, a0, b0)
	}
}
