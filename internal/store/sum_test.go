package store

import (
	"hash/crc32"
	"math"
	"testing"
)

// scalarFinite is the finite scan as one chain of ORs, the form
// nonFiniteCarry's four accumulators replaced.
func scalarFinite(xs []float64) bool {
	var carry uint64
	for _, x := range xs {
		carry |= math.Float64bits(x)&^(1<<63) + 1<<52
	}
	return carry>>63 == 0
}

// TestFourAccumulatorScanMatchesScalar: the four-accumulator finite scan
// gives the scalar scan's verdict, and math's, with a NaN (either sign) or
// ±Inf at every offset mod 4, at lengths that are not multiples of 4, and
// on either side of the 32 KiB chunk sectionSum.add scans at a time (4 096
// float64s); the largest finite values and a denormal pass. sectionSum
// fed the same bytes whole or in uneven pieces agrees, and its checksum is
// the payload's.
func TestFourAccumulatorScanMatchesScalar(t *testing.T) {
	nan := math.NaN()
	specials := []float64{nan, math.Copysign(nan, -1), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}
	const chunkFloats = 32 << 10 / 8
	lengths := []int{1, 2, 3, 4, 5, 6, 7, 9, 13, chunkFloats - 1, chunkFloats, chunkFloats + 1, chunkFloats + 3, 2*chunkFloats + 5}
	for _, n := range lengths {
		var at []int
		if n <= 16 {
			for p := range n {
				at = append(at, p)
			}
		} else {
			for _, base := range []int{0, chunkFloats - 4, chunkFloats, n - 8} {
				for p := base; p < base+8 && p < n; p++ {
					at = append(at, p)
				}
			}
		}
		buf := alignedBytes(8 * n)
		xs := float64View(buf)
		for i := range xs {
			xs[i] = float64(i%97)/97 - 0.5
		}
		for _, v := range specials {
			for _, p := range at {
				old := xs[p]
				xs[p] = v
				want := !math.IsNaN(v) && !math.IsInf(v, 0)
				if got := nonFiniteCarry(xs)>>63 == 0; got != want || scalarFinite(xs) != want {
					t.Fatalf("n=%d, %v at %d: four accumulators say finite=%v, scalar %v, want %v", n, v, p, got, scalarFinite(xs), want)
				}
				var whole, pieces sectionSum
				whole.add(buf, true)
				for rest, k := buf, 1; len(rest) > 0; k++ {
					cut := min(len(rest), 8*(k*k%13+1))
					pieces.add(rest[:cut], true)
					rest = rest[cut:]
				}
				crc := crc32.Checksum(buf, castagnoli)
				if whole.finite() != want || pieces.finite() != want || whole.crc != crc || pieces.crc != crc {
					t.Fatalf("n=%d, %v at %d: sectionSum finite %v / %v, crc %08x / %08x; want %v, %08x",
						n, v, p, whole.finite(), pieces.finite(), whole.crc, pieces.crc, want, crc)
				}
				xs[p] = old
			}
		}
	}
}
