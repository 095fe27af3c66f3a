// Quickstart: store a handful of multidimensional sequences, run one
// similarity query, and print the matches with the sub-ranges where they
// match. Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	mdseq "repro"
)

func main() {
	db, err := mdseq.Open(mdseq.Options{Dim: 3})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// Store 50 random-walk sequences (stand-ins for any feature streams).
	rng := rand.New(rand.NewSource(7))
	var sequences []*mdseq.Sequence
	for i := 0; i < 50; i++ {
		s := randomWalk(rng, fmt.Sprintf("stream-%02d", i), 120+rng.Intn(200))
		if _, err := db.Add(s); err != nil {
			log.Fatal(err)
		}
		sequences = append(sequences, s)
	}
	fmt.Printf("indexed %d sequences as %d MBRs (R*-tree height %d)\n",
		db.Len(), db.NumMBRs(), db.IndexHeight())

	// Query with a subsequence of stream-20, slightly perturbed.
	src := sequences[20]
	qpts := make([]mdseq.Point, 40)
	for i := range qpts {
		p := src.At(30 + i).Clone()
		for k := range p {
			p[k] += (rng.Float64() - 0.5) * 0.01
		}
		qpts[i] = p
	}
	query, err := mdseq.NewSequence("query", qpts)
	if err != nil {
		log.Fatal(err)
	}

	const eps = 0.08
	matches, stats, err := db.Search(query, eps)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nquery: %d points, eps=%.2f\n", query.Len(), eps)
	fmt.Printf("phase 1 partitioned the query into %d MBRs\n", stats.QueryMBRs)
	fmt.Printf("phase 2 (Dmbr over the index) kept %d of %d sequences\n",
		stats.CandidatesDmbr, stats.TotalSequences)
	fmt.Printf("phase 3 (Dnorm) kept %d\n\n", stats.MatchesDnorm)

	for _, m := range matches {
		fmt.Printf("match %-10s minDnorm=%.4f  matching ranges: %v\n",
			m.Seq.Label, m.MinDnorm, m.Interval.String())
	}

	// Verify against the exact baseline.
	exact, err := db.SequentialSearch(query, eps)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsequential scan agrees: %d relevant sequence(s)\n", len(exact))
	for _, r := range exact {
		fmt.Printf("  %-10s D=%.4f exact ranges: %v\n", r.Seq.Label, r.Dist, r.Interval.String())
	}
}

func randomWalk(rng *rand.Rand, label string, n int) *mdseq.Sequence {
	pts := make([]mdseq.Point, n)
	cur := mdseq.Point{rng.Float64(), rng.Float64(), rng.Float64()}
	for i := range pts {
		next := make(mdseq.Point, 3)
		for k := range next {
			v := cur[k] + (rng.Float64()-0.5)*0.06
			if v < 0 {
				v = 0
			}
			if v > 1 {
				v = 1
			}
			next[k] = v
		}
		pts[i], cur = next, next
	}
	s, err := mdseq.NewSequence(label, pts)
	if err != nil {
		panic(err)
	}
	return s
}
