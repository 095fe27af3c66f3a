package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestQuantizeRoundsOutward(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	src := make([]float64, 4096)
	for i := range src {
		// Mix magnitudes so float32 rounding actually loses bits.
		src[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(7)-3))
	}
	// Include values that are exactly representable in float32.
	src[0], src[1], src[2] = 0, 1.5, -0.25
	lo := make([]float32, len(src))
	hi := make([]float32, len(src))
	QuantizeDown(lo, src)
	QuantizeUp(hi, src)
	for i, v := range src {
		if float64(lo[i]) > v {
			t.Fatalf("QuantizeDown(%v) = %v, above the input", v, lo[i])
		}
		if float64(hi[i]) < v {
			t.Fatalf("QuantizeUp(%v) = %v, below the input", v, hi[i])
		}
		// Outward rounding must be tight: one float32 ulp at most.
		if up := math.Nextafter32(lo[i], float32(math.Inf(1))); float64(up) <= v && float64(lo[i]) != v {
			t.Fatalf("QuantizeDown(%v) = %v not the largest float32 below", v, lo[i])
		}
		if dn := math.Nextafter32(hi[i], float32(math.Inf(-1))); float64(dn) >= v && float64(hi[i]) != v {
			t.Fatalf("QuantizeUp(%v) = %v not the smallest float32 above", v, hi[i])
		}
	}
}

// quantizedStore builds exact and quantized columnar bound stores for n
// random d-dimensional boxes.
func quantizedStore(rng *rand.Rand, n, d int) (lo, hi []float64, qlo, qhi []float32) {
	lo = make([]float64, n*d)
	hi = make([]float64, n*d)
	for i := range lo {
		a, b := rng.Float64(), rng.Float64()
		if a > b {
			a, b = b, a
		}
		lo[i], hi[i] = a, b
	}
	qlo = make([]float32, n*d)
	qhi = make([]float32, n*d)
	QuantizeDown(qlo, lo)
	QuantizeUp(qhi, hi)
	return
}

func TestMinDistSqBatchQIsLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, d := range []int{2, 3, 4, 8, 16} {
		const n = 257
		lo, hi, qlo, qhi := quantizedStore(rng, n, d)
		qL := make([]float64, d)
		qH := make([]float64, d)
		for k := range qL {
			a, b := rng.Float64(), rng.Float64()
			if a > b {
				a, b = b, a
			}
			qL[k], qH[k] = a, b
		}
		exact := make([]float64, n)
		quant := make([]float64, n)
		MinDistSqBatch(qL, qH, lo, hi, exact)
		MinDistSqBatchQ(qL, qH, qlo, qhi, quant)
		for i := range exact {
			if quant[i] > exact[i] {
				t.Fatalf("d=%d box %d: quantized %v exceeds exact %v", d, i, quant[i], exact[i])
			}
			// The bound should be tight: within the slack one float32 ulp
			// per axis can introduce.
			if exact[i]-quant[i] > 1e-5 {
				t.Errorf("d=%d box %d: quantized bound %v too loose vs exact %v", d, i, quant[i], exact[i])
			}
		}
	}
}

// TestMinDistSqBatchQMatchesReference checks every path of
// MinDistSqBatchQ — the unrolled dimensions and the wide one: even, odd
// and single-axis boxes, no box at all — against the three-case reference summed over the widened bounds,
// bit for bit, on the touching, nested, zero-width, denormal and huge
// intervals of gapIntervals (1e200 widens to a float32 infinity, which a
// finite query box keeps away from NaN).
func TestMinDistSqBatchQMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, d := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17} {
		for _, n := range []int{0, 1, 2, 511} {
			lo, hi := gapIntervals(rng, n*d)
			qlo, qhi := make([]float32, n*d), make([]float32, n*d)
			QuantizeDown(qlo, lo)
			QuantizeUp(qhi, hi)
			wlo, whi := make([]float64, n*d), make([]float64, n*d)
			for i := range qlo {
				wlo[i], whi[i] = float64(qlo[i]), float64(qhi[i])
			}
			out := make([]float64, n+1)
			for trial := 0; trial < 16; trial++ {
				qL, qH := gapIntervals(rng, d)
				sentinel := rng.Float64()
				out[n] = sentinel
				MinDistSqBatchQ(qL, qH, qlo, qhi, out[:n])
				for i := 0; i < n; i++ {
					want := minDistSqReference(qL, qH, wlo[i*d:(i+1)*d], whi[i*d:(i+1)*d])
					if math.Float64bits(out[i]) != math.Float64bits(want) {
						t.Fatalf("d=%d n=%d box %d: MinDistSqBatchQ = %v, reference %v", d, n, i, out[i], want)
					}
				}
				if out[n] != sentinel {
					t.Fatalf("d=%d n=%d: wrote past out", d, n)
				}
			}
		}
	}
}

// TestMinDistSqBatchQChecksBounds checks that the wide path refuses bound
// arrays shorter than len(out) boxes, as the indexed loops do, before
// anything reads past them.
func TestMinDistSqBatchQChecksBounds(t *testing.T) {
	const d, n = 8, 4
	q := make([]float64, d)
	full := make([]float32, n*d)
	for name, call := range map[string]func(){
		"lo": func() { MinDistSqBatchQ(q, q, full[:n*d-1], full, make([]float64, n)) },
		"hi": func() { MinDistSqBatchQ(q, q, full, full[:n*d-1], make([]float64, n)) },
		"qH": func() { MinDistSqBatchQ(q, q[:d-1], full, full, make([]float64, n)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("short %s: no panic", name)
				}
			}()
			call()
		}()
	}
}
