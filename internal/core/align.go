package core

import (
	"math"

	"repro/internal/geom"
)

// alignSide is one sequence as the alignment kernel reads it: columnar
// points (point i at flat[i*d:(i+1)*d]), columnar MBR bounds (MBR j at
// lo/hi[j*d:(j+1)*d]) and the MBR point-range column (MBR j covers points
// [starts[j], starts[j+1])).
type alignSide struct {
	flat, lo, hi []float64
	starts       []int32
}

// side returns the stored sequence's columnar view.
func (g *Segmented) side() alignSide {
	return alignSide{flat: g.Flat, lo: g.Lo, hi: g.Hi, starts: g.Starts}
}

// alignScratch holds the alignment kernel's per-candidate arrays.
type alignScratch struct {
	tab []float64 // Dmbr of every (short MBR, long MBR) pair, row per short MBR
	lb  []float64 // per-offset lower bound of the alignment's mean distance
}

// alignSlack is the factor a per-offset Dmbr bound sum is shrunk by before
// it is compared with anything derived from the exact sum. In real
// arithmetic the bound sum never exceeds the exact sum (Lemma 1, term by
// term); in float64 the two are accumulated in different orders — runs of
// Dmbr·length against one sqrt per point — and each can be off by a
// relative (1±u) per operation, u = 2⁻⁵³. Per term, the computed Dmbr is at
// most the computed point distance times ((1+u)/(1−u))^(d/2+1): the per-axis
// gap is a monotone function of the per-axis difference, so only the d
// additions, the squares' roundings and the sqrt can disagree. The sums add
// at most k roundings on each side. So bound·((1−u)/(1+u))^(k+d/2+2) ≤
// exact, and 1 − 4u·(k+d+4) is below that factor with room to spare for its
// own rounding and the multiplication's. A skipped alignment is therefore
// provably above the cutoff, not merely probably.
func alignSlack(k, d int) float64 {
	return 1 - float64(k+d+4)*0x1p-51
}

// alignMean sums one alignment's k point distances in point order and
// returns the mean, abandoning as soon as a partial mean exceeds cutoff
// (ok = false). Every term is nonnegative, so partial sums never decrease
// and an abandoned alignment's full mean is above cutoff too; a surviving
// one is BestAlignment's Dmean bit for bit (same term order, one
// division). The running test is sum > cutoff·k, which needs no division;
// because that product is rounded, the division confirms before anything
// is abandoned.
func alignMean(short, long []float64, k, d int, cutoff float64) (mean float64, ok bool) {
	fk := float64(k)
	lim := cutoff * fk
	var sum float64
	for i := 0; i < k; i++ {
		o := i * d
		sum += math.Sqrt(geom.DistSqFlat(short[o:o+d], long[o:o+d]))
		if sum > lim && sum/fk > cutoff {
			return 0, false
		}
	}
	return sum / fk, true
}

// bestAlign is the alignment kernel: the offset (into the longer side) and
// mean point distance of the best alignment of the shorter side inside the
// longer one — BestAlignment over columnar storage, with a ladder of two
// bounds in front of the point distances.
//
// First the Dmbr of every (short MBR, long MBR) pair goes into a table.
// Lemma 1 says Dmbr lower-bounds the distance of every point pair drawn
// from the two MBRs, so for offset j the mean of Dmbr(mbr(short_i),
// mbr(long_{j+i})) lower-bounds that alignment's mean distance; it is one
// term per run of points over which both MBRs stay the same (a two-pointer
// walk over the two starts columns), not one sqrt per point. Offsets whose
// bound, shrunk by alignSlack, exceeds the cutoff are never summed; a walk
// stops as soon as its partial sum says so (a partial sum is a lower bound
// too, just a weaker one).
//
// Second, the offset with the smallest bound is summed first and the
// cutoff drops to the sequence's own running best from then on, so early
// abandoning bites even when the caller's cutoff is +Inf.
//
// Results: whenever the true minimum D is ≤ cutoff, dist is exactly
// BestAlignment's value and offset its offset (the smallest among equal
// minima) — an alignment with mean D has bound ≤ D and no partial mean
// above D, so it is neither skipped nor abandoned, and it is summed with
// BestAlignment's arithmetic. When D > cutoff, dist is some value above
// cutoff (+Inf if nothing was summed to the end); callers act only on
// results ≤ cutoff.
func bestAlign(as *alignScratch, a, b alignSide, d int, cutoff float64) (offset int, dist float64) {
	if len(a.flat) == 0 || len(b.flat) == 0 {
		return 0, math.Inf(1)
	}
	short, long := a, b
	if len(short.flat) > len(long.flat) {
		short, long = long, short
	}
	k := len(short.flat) / d
	noff := len(long.flat)/d - k + 1
	rs, rl := len(short.starts)-1, len(long.starts)-1

	as.tab = ensureFloats(as.tab, rs*rl)
	tab := as.tab
	for i := 0; i < rs; i++ {
		row := tab[i*rl : (i+1)*rl]
		geom.MinDistSqBatch(short.lo[i*d:(i+1)*d], short.hi[i*d:(i+1)*d], long.lo, long.hi, row)
		for t := range row {
			row[t] = math.Sqrt(row[t])
		}
	}

	as.lb = ensureFloats(as.lb, noff)
	lb := as.lb
	fk, k32 := float64(k), int32(k)
	slack := alignSlack(k, d)
	// A partial bound sum past stop is already above cutoff.
	stop := cutoff * fk / slack
	first := 0 // offset with the smallest bound
	lt0 := 0   // long MBR holding point j
	for j := 0; j < noff; j++ {
		j32 := int32(j)
		for long.starts[lt0+1] <= j32 {
			lt0++
		}
		// Walk the runs: pos is the short-side point reached, se/le the
		// short-side index where the current short/long MBR ends.
		si, lt, pos := 0, lt0, int32(0)
		se, le := short.starts[1], long.starts[lt0+1]-j32
		var sum float64
		for {
			e := min(se, le)
			sum += tab[si*rl+lt] * float64(e-pos)
			if e == k32 || sum > stop {
				break
			}
			pos = e
			if e == se {
				si++
				se = short.starts[si+1]
			}
			if e == le {
				lt++
				le = long.starts[lt+1] - j32
			}
		}
		lb[j] = sum * slack / fk
		if lb[j] < lb[first] {
			first = j
		}
	}

	dist = math.Inf(1)
	if lb[first] > cutoff {
		return 0, dist
	}
	if mean, ok := alignMean(short.flat, long.flat[first*d:], k, d, cutoff); ok {
		offset, dist = first, mean
		cutoff = min(cutoff, mean)
	}
	for j := 0; j < noff; j++ {
		if j == first || lb[j] > cutoff {
			continue
		}
		mean, ok := alignMean(short.flat, long.flat[j*d:], k, d, cutoff)
		if !ok {
			continue
		}
		if mean < dist || (mean == dist && j < offset) {
			offset, dist = j, mean
			cutoff = min(cutoff, mean)
		}
	}
	return offset, dist
}
