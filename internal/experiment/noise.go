package experiment

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/geom"
)

// NoiseRow is one row of the query-noise sensitivity extension: queries
// are perturbed copies of stored subsequences, and we measure how the
// exact relevance, the index's candidate set and the interval recall react
// as the perturbation grows. Real queries (a clip re-encoded at a
// different bitrate, a re-measured time series) are never byte-identical
// to the stored data; this sweep shows the search degrades gracefully.
type NoiseRow struct {
	Noise    float64 // per-coordinate uniform noise amplitude
	AvgRel   float64 // exactly relevant sequences per query
	AvgCands float64 // |ASmbr| per query
	AvgMatch float64 // |ASnorm| per query
	Recall   float64 // solution-interval recall vs exact
}

// RunNoiseSweep evaluates the probe threshold at each noise level. The
// clean (noise 0) queries come from MakeQueries; each level re-perturbs
// the same base queries, so rows are comparable.
func RunNoiseSweep(cfg Config, levels []float64, probeEps float64) ([]NoiseRow, error) {
	data, err := GenerateData(cfg)
	if err != nil {
		return nil, err
	}
	db, err := core.NewDatabase(core.Options{Dim: cfg.Dim, Partition: cfg.Partition})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	if _, err := db.AddAll(data); err != nil {
		return nil, err
	}
	base := MakeQueries(cfg, data)

	rows := make([]NoiseRow, 0, len(levels))
	for li, level := range levels {
		rng := rand.New(rand.NewSource(cfg.Seed + 1000 + int64(li)))
		queries := make([]*core.Sequence, len(base))
		for i, q := range base {
			queries[i] = perturb(rng, q, level)
		}
		truth := ComputeTruth(queries, data)
		b := &Bench{Config: cfg, DB: db, Data: data, Queries: queries, Truth: truth}

		var row NoiseRow
		row.Noise = level
		var recallSum float64
		var recallN int
		for qi, q := range queries {
			relevant := b.RelevantAt(qi, probeEps)
			cands, err := db.CandidatesDmbr(q, probeEps)
			if err != nil {
				return nil, err
			}
			matches, _, err := db.Search(q, probeEps)
			if err != nil {
				return nil, err
			}
			row.AvgRel += float64(len(relevant))
			row.AvgCands += float64(len(cands))
			row.AvgMatch += float64(len(matches))

			approx := make(map[uint32]*core.IntervalSet, len(matches))
			for i := range matches {
				approx[matches[i].SeqID] = &matches[i].Interval
			}
			var scan, inter int
			for si := range data {
				exact := b.ExactInterval(qi, si, probeEps)
				if exact.NumPoints() == 0 {
					continue
				}
				scan += exact.NumPoints()
				if a, ok := approx[uint32(si)]; ok {
					inter += exact.IntersectCount(a)
				}
			}
			if scan > 0 {
				recallSum += float64(inter) / float64(scan)
				recallN++
			}
		}
		nq := float64(len(queries))
		row.AvgRel /= nq
		row.AvgCands /= nq
		row.AvgMatch /= nq
		if recallN > 0 {
			row.Recall = recallSum / float64(recallN)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// perturb adds uniform noise of the given amplitude to every coordinate,
// clamped to the unit cube.
func perturb(rng *rand.Rand, q *core.Sequence, level float64) *core.Sequence {
	pts := make([]geom.Point, q.Len())
	for i := range pts {
		p := q.At(i)
		np := make(geom.Point, len(p))
		for k, v := range p {
			np[k] = clamp01(v + level*(rng.Float64()*2-1))
		}
		pts[i] = np
	}
	return &core.Sequence{Label: q.Label + "+noise", Points: pts}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
