package geom

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randRect is shared with rect_test.go.

func randPoint(rng *rand.Rand, dim int) Point {
	p := make(Point, dim)
	for k := range p {
		p[k] = rng.Float64()
	}
	return p
}

// TestMinDistSqMatchesMinDist is the squared-space correctness property:
// MinDistSq must equal MinDist² (up to 1-ulp-scale rounding from the one
// extra multiply), and MinDist must equal Sqrt(MinDistSq) exactly, across
// random rectangle pairs and dimensions.
func TestMinDistSqMatchesMinDist(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, dim := range []int{1, 2, 3, 4, 5, 8, 16} {
		for i := 0; i < 2000; i++ {
			a, b := randRect(rng, dim), randRect(rng, dim)
			sq := a.MinDistSq(b)
			d := a.MinDist(b)
			if got := math.Sqrt(sq); got != d {
				t.Fatalf("dim %d: MinDist %v != Sqrt(MinDistSq) %v", dim, d, got)
			}
			// d*d re-rounds, so allow a few ulps around sq.
			if diff := math.Abs(d*d - sq); diff > 4*ulpAt(sq) {
				t.Fatalf("dim %d: MinDist²=%v vs MinDistSq=%v (diff %g)", dim, d*d, sq, diff)
			}
			if sq < 0 {
				t.Fatalf("dim %d: negative MinDistSq %v", dim, sq)
			}
			if a.Intersects(b) && sq != 0 {
				t.Fatalf("dim %d: intersecting rects with MinDistSq %v", dim, sq)
			}
		}
	}
}

// TestMinDistPointSqMatches checks the point-to-rectangle squared kernel
// against its sqrt form and against the degenerate-rectangle definition.
func TestMinDistPointSqMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, dim := range []int{1, 2, 4, 8} {
		for i := 0; i < 2000; i++ {
			r := randRect(rng, dim)
			p := randPoint(rng, dim)
			sq := r.MinDistPointSq(p)
			if got := math.Sqrt(sq); got != r.MinDistPoint(p) {
				t.Fatalf("dim %d: MinDistPoint %v != Sqrt(MinDistPointSq) %v", dim, r.MinDistPoint(p), got)
			}
			if deg := r.MinDistSq(RectFromPoint(p)); deg != sq {
				t.Fatalf("dim %d: MinDistPointSq %v != MinDistSq(degenerate) %v", dim, sq, deg)
			}
			if r.ContainsPoint(p) && sq != 0 {
				t.Fatalf("dim %d: contained point with MinDistPointSq %v", dim, sq)
			}
		}
	}
}

// TestMinDistSqBatchMatchesScalar checks the columnar batch kernel against
// the scalar rectangle API for every specialized dimension and the generic
// fallback.
func TestMinDistSqBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, dim := range []int{1, 2, 3, 4, 6, 8, 16} {
		q := randRect(rng, dim)
		const n = 64
		lo := make([]float64, n*dim)
		hi := make([]float64, n*dim)
		rects := make([]Rect, n)
		for t := 0; t < n; t++ {
			r := randRect(rng, dim)
			rects[t] = r
			copy(lo[t*dim:], r.L)
			copy(hi[t*dim:], r.H)
		}
		out := make([]float64, n)
		MinDistSqBatch(q.L, q.H, lo, hi, out)
		for i, r := range rects {
			if want := q.MinDistSq(r); out[i] != want {
				t.Fatalf("dim %d target %d: batch %v != scalar %v", dim, i, out[i], want)
			}
		}
	}
}

// gapSqReference is the textbook three-case form of GapSq — which side, if
// either, the gap is on — kept as the reference the branch-free form is
// compared against. It was the serving definition until the branches'
// mispredictions showed in the profile.
func gapSqReference(al, ah, bl, bh float64) float64 {
	var x float64
	switch {
	case ah < bl:
		x = bl - ah
	case bh < al:
		x = al - bh
	}
	return x * x
}

// minDistSqReference sums gapSqReference over the axes in index order, the
// accumulation every kernel in kernel.go promises.
func minDistSqReference(aL, aH, bL, bH []float64) float64 {
	var sum float64
	for k := range aL {
		sum += gapSqReference(aL[k], aH[k], bL[k], bH[k])
	}
	return sum
}

// gapIntervals returns n intervals [lo, hi] with lo ≤ hi drawn so that
// pairs of them touch, nest, coincide, have zero width, straddle zero, sit
// at 1e200 scale (whose squared gap overflows) or among the denormals —
// beside ordinary unit-cube ones.
func gapIntervals(rng *rand.Rand, n int) (lo, hi []float64) {
	grid := []float64{-1e200, -3, -0.5, 0, 5e-324, 1e-310, 0.25, 0.5, 0.75, 1, 2, 1e200, math.MaxFloat64}
	lo, hi = make([]float64, n), make([]float64, n)
	for i := range lo {
		var a, b float64
		switch rng.Intn(4) {
		case 0: // grid-aligned: touching, nested and identical pairs are common
			a, b = grid[rng.Intn(len(grid))], grid[rng.Intn(len(grid))]
		case 1: // zero width
			a = rng.Float64()
			b = a
		default:
			a, b = rng.Float64(), rng.Float64()
		}
		if a > b {
			a, b = b, a
		}
		lo[i], hi[i] = a, b
	}
	return lo, hi
}

// TestGapSqMatchesReference checks the branch-free gap and every kernel
// summed from it — MinDistSqLH, MinDistSqBatch, MinDistPointSqFlat, for
// each unrolled dimension and the generic loop — against the three-case
// reference, bit for bit, on touching, nested, zero-width, huge and
// denormal boxes.
func TestGapSqMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	same := func(got, want float64) bool { return math.Float64bits(got) == math.Float64bits(want) }

	lo, hi := gapIntervals(rng, 4096)
	for i := range lo {
		for j := 0; j < 64; j++ {
			k := rng.Intn(len(lo))
			if got, want := GapSq(lo[i], hi[i], lo[k], hi[k]), gapSqReference(lo[i], hi[i], lo[k], hi[k]); !same(got, want) {
				t.Fatalf("GapSq([%g,%g], [%g,%g]) = %v, reference %v", lo[i], hi[i], lo[k], hi[k], got, want)
			}
		}
	}

	for _, dim := range []int{1, 2, 3, 4, 5, 8} {
		const n = 512
		lo, hi := gapIntervals(rng, n*dim)
		out := make([]float64, n)
		for trial := 0; trial < 32; trial++ {
			qL, qH := gapIntervals(rng, dim)
			MinDistSqBatch(qL, qH, lo, hi, out)
			p := lo[trial*dim : (trial+1)*dim] // any point will do
			for i := 0; i < n; i++ {
				bL, bH := lo[i*dim:(i+1)*dim], hi[i*dim:(i+1)*dim]
				want := minDistSqReference(qL, qH, bL, bH)
				if !same(out[i], want) {
					t.Fatalf("dim %d: MinDistSqBatch target %d = %v, reference %v", dim, i, out[i], want)
				}
				if got := MinDistSqLH(qL, qH, bL, bH); !same(got, want) {
					t.Fatalf("dim %d: MinDistSqLH target %d = %v, reference %v", dim, i, got, want)
				}
				if got, want := MinDistPointSqFlat(p, bL, bH), minDistSqReference(p, p, bL, bH); !same(got, want) {
					t.Fatalf("dim %d: MinDistPointSqFlat target %d = %v, reference %v", dim, i, got, want)
				}
			}
		}
	}
}

// TestDistSqFlatMatchesPoint checks the flat point kernel against the
// Point API, including the exact-equality contract DistSq == Dist2.
func TestDistSqFlatMatchesPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, dim := range []int{1, 2, 3, 4, 7, 16} {
		for i := 0; i < 1000; i++ {
			p, q := randPoint(rng, dim), randPoint(rng, dim)
			want := p.DistSq(q)
			if got := DistSqFlat(p, q); got != want {
				t.Fatalf("dim %d: DistSqFlat %v != DistSq %v", dim, got, want)
			}
			if got := p.Dist2(q); got != want {
				t.Fatalf("dim %d: Dist2 %v != DistSq %v", dim, got, want)
			}
			if got := math.Sqrt(want); got != p.Dist(q) {
				t.Fatalf("dim %d: Dist %v != Sqrt(DistSq) %v", dim, p.Dist(q), got)
			}
		}
	}
}

// TestCenterInto checks the in-place center against Center.
func TestCenterInto(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, dim := range []int{1, 2, 4, 8} {
		for i := 0; i < 200; i++ {
			r := randRect(rng, dim)
			dst := make(Point, dim)
			r.CenterInto(dst)
			if !dst.Equal(r.Center()) {
				t.Fatalf("dim %d: CenterInto %v != Center %v", dim, dst, r.Center())
			}
		}
	}
}

// ulpAt returns the unit-in-the-last-place spacing at |x| (of float64),
// with a floor for x near zero.
func ulpAt(x float64) float64 {
	x = math.Abs(x)
	if x == 0 {
		return math.SmallestNonzeroFloat64
	}
	return math.Nextafter(x, math.Inf(1)) - x
}

// kernelSink keeps benchmarked results alive.
var kernelSink float64

// BenchmarkMinDistSqBatchMixed times the Dmbr row at r targets per call
// with the query box cycled through a pool of 4096, so that which side of
// each axis the gap falls on — what a branching gap mispredicts — does not
// repeat from call to call the way a single replayed box pair does.
func BenchmarkMinDistSqBatchMixed(b *testing.B) {
	const dim, pool = 3, 4096
	rng := rand.New(rand.NewSource(47))
	box := func() (lo, hi [dim]float64) {
		for k := 0; k < dim; k++ {
			c, w := rng.Float64(), rng.Float64()*0.2
			lo[k], hi[k] = c-w/2, c+w/2
		}
		return
	}
	qL, qH := make([]float64, pool*dim), make([]float64, pool*dim)
	for i := 0; i < pool; i++ {
		lo, hi := box()
		copy(qL[i*dim:], lo[:])
		copy(qH[i*dim:], hi[:])
	}
	for _, r := range []int{8, 64} {
		tL, tH := make([]float64, pool*r*dim), make([]float64, pool*r*dim)
		for i := 0; i < pool*r; i++ {
			lo, hi := box()
			copy(tL[i*dim:], lo[:])
			copy(tH[i*dim:], hi[:])
		}
		out := make([]float64, r)
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q := (i % pool) * dim
				t := (i * 7 % pool) * r * dim
				MinDistSqBatch(qL[q:q+dim], qH[q:q+dim], tL[t:t+r*dim], tH[t:t+r*dim], out)
				kernelSink += out[r-1]
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*r), "ns/pair")
		})
	}
}
