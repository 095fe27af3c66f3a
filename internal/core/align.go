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

// alignScratch holds the alignment kernel's per-candidate arrays, each as
// long as the longer side.
type alignScratch struct {
	dmbr []float64 // Dmbr of one short-side MBR against every long-side MBR
	run  []float64 // running sum of those over the long side's points, len +1
	lb   []float64 // per-offset lower bound of the alignment's mean distance
}

// alignSlack is the factor a per-offset Dmbr bound sum of k terms at
// dimension d is shrunk by before it is compared with anything derived from
// the exact sum. In real arithmetic the bound sum never exceeds the exact
// sum (Lemma 1, term by term); in float64 the two are summed in different
// orders, and bound·((1−u)/(1+u))^(k+d/2+2) ≤ exact, u = 2⁻⁵³, of which
// 1 − 4u·(k+d+4) is below. So a skipped alignment is provably above the
// cutoff. The proof is in DESIGN "Rounding".
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
// is abandoned. The distance is written out for three dimensions in
// geom.DistSqFlat's expression shape, the same bits without a call.
func alignMean(short, long []float64, k, d int, cutoff float64) (mean float64, ok bool) {
	fk := float64(k)
	lim := cutoff * fk
	var sum float64
	for i := 0; i < k; i++ {
		o := i * d
		var sq float64
		if d == 3 {
			sp, lp := short[o:o+3:o+3], long[o:o+3:o+3]
			d0, d1, d2 := sp[0]-lp[0], sp[1]-lp[1], sp[2]-lp[2]
			sq = d0*d0 + d1*d1 + d2*d2
		} else {
			sq = geom.DistSqFlat(short[o:o+d], long[o:o+d])
		}
		sum += math.Sqrt(sq)
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
// First, a bound per offset. Lemma 1 says Dmbr lower-bounds the distance of
// every point pair drawn from the two MBRs, so for offset j the mean of
// Dmbr(mbr(short_i), mbr(long_{j+i})) lower-bounds that alignment's mean
// distance. Grouped by short-side MBR a, holding points [s_a, e_a), the sum
// is Σ_a P_a[j+e_a] − P_a[j+s_a], where P_a is the running sum over the long
// side's points of Dmbr(a, MBR holding the point): one pass over the long
// side per short MBR, then one subtraction per offset, with no branch on
// where runs end. Offsets whose bound exceeds the cutoff are never summed.
//
// In float64 two things stand between that bound and the exact sum. One is
// rounding per operation, alignSlack's argument: per term the computed
// Dmbr is at most ((1+u)/(1−u))^(d/2+1) times the computed point distance,
// a difference adds one rounding and the sum over short MBRs at most k, the
// margin below one more — all inside the 4u·(k+d+4) alignSlack takes off.
// The other is cancellation, as with knnSeqBound's wpre: P_a[y] − P_a[x] is
// exactly the c_a = e_a − s_a additions between its ends, each off by up to
// u·P_a[m] whatever the difference's own size — every Dmbr is nonnegative,
// so no running sum exceeds the last. The computed sum can so exceed the
// real one by u·Σ_a c_a·P_a[m]; 2u = 2⁻⁵² times that is subtracted, the
// factor two covering the roundings of that term itself. For data of one
// scale this is some 10⁻¹³ of the bound. Where it is not — a spike 10¹⁶
// times the rest swallows the small terms of P — the bound falls below zero
// and prunes nothing, and an overflowed Dmbr (Inf − Inf) leaves every bound
// at zero; neither ever puts a bound above the exact mean.
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
	k, m := len(short.flat)/d, len(long.flat)/d
	noff := m - k + 1
	rs, rl := len(short.starts)-1, len(long.starts)-1

	as.dmbr = ensureFloats(as.dmbr, rl)
	as.run = ensureFloats(as.run, m+1)
	as.lb = ensureFloats(as.lb, noff)
	dmbr, run, lb := as.dmbr, as.run, as.lb
	clear(lb)
	run[0] = 0
	var total float64 // Σ_a c_a·P_a[m], the cancellation margin's scale
	for i := 0; i < rs; i++ {
		geom.MinDistSqBatch(short.lo[i*d:(i+1)*d], short.hi[i*d:(i+1)*d], long.lo, long.hi, dmbr)
		var sum float64
		for t, sq := range dmbr {
			v := math.Sqrt(sq)
			for p := long.starts[t]; p < long.starts[t+1]; p++ {
				sum += v
				run[p+1] = sum
			}
		}
		s, e := int(short.starts[i]), int(short.starts[i+1])
		from, to := run[s:s+len(lb)], run[e:e+len(lb)]
		for j := range lb {
			lb[j] += to[j] - from[j]
		}
		total += float64(e-s) * sum
	}

	fk := float64(k)
	slack := alignSlack(k, d)
	margin := total * 0x1p-52
	if !(total <= math.MaxFloat64) {
		clear(lb)
		margin = 0
	}
	first := 0 // offset with the smallest bound
	for j := range lb {
		lb[j] = (lb[j] - margin) * slack / fk
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
