package server

import (
	"bytes"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"
)

// appendFloatStrconv is appendFloat as it was before the shortest kernel,
// strconv for every value: the reference the kernel is held to.
func appendFloatStrconv(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, errNonFinite
	}
	abs := math.Abs(f)
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		b = strconv.AppendFloat(b, f, 'e', -1, 64)
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
		return b, nil
	}
	return strconv.AppendFloat(b, f, 'f', -1, 64), nil
}

// floatChecker compares appendFloat with the strconv reference, reusing
// its two buffers.
type floatChecker struct{ got, want []byte }

func (c *floatChecker) check(t testing.TB, f float64) {
	var gotErr, wantErr error
	c.got, gotErr = appendFloat(c.got[:0], f)
	c.want, wantErr = appendFloatStrconv(c.want[:0], f)
	if (gotErr == nil) != (wantErr == nil) || !bytes.Equal(c.got, c.want) {
		t.Fatalf("%#016x: appendFloat = %q (%v), strconv = %q (%v)", math.Float64bits(f), c.got, gotErr, c.want, wantErr)
	}
}

// TestAppendShortestMatchesStrconv: over a little more than a million
// values, appendFloat writes strconv's bytes — random bit patterns, both
// signs of uniform exponents over [2^-20, 2^71) (the kernel's range and
// past both its ends), one ulp either side of every power of two there,
// the range's ends and their neighbours, ±0, and integers up to 2^53.
func TestAppendShortestMatchesStrconv(t *testing.T) {
	var c floatChecker
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 400_000; i++ {
		c.check(t, math.Float64frombits(rng.Uint64()))
	}
	for i := 0; i < 400_000; i++ {
		f := math.Ldexp(1+rng.Float64(), -20+rng.Intn(91))
		if rng.Intn(2) == 0 {
			f = -f
		}
		c.check(t, f)
	}
	for e := -21; e <= 71; e++ {
		p := math.Ldexp(1, e)
		for _, f := range []float64{p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1))} {
			c.check(t, f)
			c.check(t, -f)
		}
	}
	for _, edge := range []float64{1e-6, 1e21} {
		f := edge
		for i := 0; i < 1000; i++ {
			f = math.Nextafter(f, 0)
		}
		for i := 0; i < 2000; i++ {
			c.check(t, f)
			c.check(t, -f)
			f = math.Nextafter(f, math.Inf(1))
		}
	}
	c.check(t, 0)
	c.check(t, math.Copysign(0, -1))
	for i := 0; i < 200_000; i++ {
		n := rng.Int63n(1 << 53)
		if i < 1000 {
			n = int64(i)
		}
		c.check(t, float64(n))
		c.check(t, -float64(n))
	}
	// Short decimals, the distances a real answer is full of.
	for i := 0; i < 200_000; i++ {
		f, err := strconv.ParseFloat(strconv.FormatFloat(rng.Float64()*math.Pow(10, float64(rng.Intn(10)-5)), 'g', 1+rng.Intn(17), 64), 64)
		if err != nil {
			t.Fatal(err)
		}
		c.check(t, f)
	}
}

// FuzzAppendFloat: every 64-bit pattern is written as strconv writes it,
// the non-finite ones refused by both.
func FuzzAppendFloat(f *testing.F) {
	for _, v := range []float64{0, 1, 0.1, 1e-6, 1e21, 9.999999999999999e20, 5e-324, math.MaxFloat64, math.Inf(1), math.NaN()} {
		f.Add(math.Float64bits(v))
		f.Add(math.Float64bits(math.Nextafter(v, 0)))
	}
	var c floatChecker
	f.Fuzz(func(t *testing.T, u uint64) { c.check(t, math.Float64frombits(u)) })
}

// TestPow10TableMatchesBig recomputes every pow10Table entry with math/big
// from its definition, and checks that the table covers every k, and the
// shift h stays in [1, 5] (so cbr<<h stays below 2^61, as roundToOdd
// needs), over the binary exponents of the kernel's range.
func TestPow10TableMatchesBig(t *testing.T) {
	for i, g := range pow10Table {
		k := pow10MinK + i
		// beta = 10^-k·2^-r in [2^125, 2^126) with r = ⌊log₂10^-k⌋ - 125.
		r := floorLog2Pow10(-k) - 125
		num, den := big.NewInt(1), big.NewInt(1)
		ten := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(absInt(k))), nil)
		if k <= 0 {
			num.Mul(num, ten)
		} else {
			den.Mul(den, ten)
		}
		if r >= 0 {
			den.Lsh(den, uint(r))
		} else {
			num.Lsh(num, uint(-r))
		}
		beta := new(big.Int).Quo(num, den)
		if beta.BitLen() != 126 {
			t.Fatalf("k=%d: ⌊beta⌋ has %d bits, want 126", k, beta.BitLen())
		}
		want := beta.Add(beta, big.NewInt(1))
		got := new(big.Int).Lsh(new(big.Int).SetUint64(g[0]), 63)
		got.Or(got, new(big.Int).SetUint64(g[1]))
		if g[1]>>63 != 0 || got.Cmp(want) != 0 {
			t.Errorf("pow10Table k=%d = {%#x, %#x}, want g = %#x", k, g[0], g[1], want)
		}
	}
	lo := math.Float64bits(1e-6)>>52 - 1075
	hi := math.Float64bits(math.Nextafter(1e21, 0))>>52 - 1075
	for q := int(int64(lo)); q <= int(int64(hi)); q++ {
		for _, k := range []int{floorLog10Pow2(q), floorLog10ThreeQuartersPow2(q)} {
			if k < pow10MinK || k >= pow10MinK+len(pow10Table) {
				t.Errorf("q=%d needs k=%d, outside the table", q, k)
			}
			if h := q + floorLog2Pow10(-k) + 2; h < 1 || h > 5 {
				t.Errorf("q=%d k=%d: shift %d outside [1, 5]", q, k, h)
			}
		}
	}
}

// TestShortestExponentHelpers holds the three fixed-point logarithms to
// their definitions, computed exactly, far past the exponents the kernel
// uses.
func TestShortestExponentHelpers(t *testing.T) {
	pow := func(base int64, e int) *big.Rat {
		p := new(big.Int).Exp(big.NewInt(base), big.NewInt(int64(absInt(e))), nil)
		if e < 0 {
			return new(big.Rat).SetFrac(big.NewInt(1), p)
		}
		return new(big.Rat).SetInt(p)
	}
	// floorOf reports whether k = ⌊log_base(x)⌋: base^k <= x < base^(k+1).
	floorOf := func(k int, base int64, x *big.Rat) bool {
		return pow(base, k).Cmp(x) <= 0 && x.Cmp(pow(base, k+1)) < 0
	}
	for q := -1100; q <= 1100; q++ {
		p2 := pow(2, q)
		if k := floorLog10Pow2(q); !floorOf(k, 10, p2) {
			t.Fatalf("floorLog10Pow2(%d) = %d", q, k)
		}
		tq := new(big.Rat).Mul(p2, big.NewRat(3, 4))
		if k := floorLog10ThreeQuartersPow2(q); !floorOf(k, 10, tq) {
			t.Fatalf("floorLog10ThreeQuartersPow2(%d) = %d", q, k)
		}
		if e := floorLog2Pow10(q); !floorOf(e, 2, pow(10, q)) {
			t.Fatalf("floorLog2Pow10(%d) = %d", q, e)
		}
	}
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// TestAppendIntMatchesStrconv: the two-digit table writes what strconv
// writes, at every power-of-ten edge, on both sides of the 10^8 fallback
// and for negative values.
func TestAppendIntMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	vals := []int64{0, 1, 9, 10, 99, 100, 1e8 - 1, 1e8, 1<<32 - 1, math.MaxInt64, -1, math.MinInt64}
	for p := int64(1); p <= 1e17; p *= 10 {
		vals = append(vals, p-1, p, p+1)
	}
	for i := 0; i < 100_000; i++ {
		vals = append(vals, rng.Int63n(1<<uint(1+rng.Intn(62))))
	}
	for _, v := range vals {
		if got, want := appendInt(nil, v), strconv.AppendInt(nil, v, 10); !bytes.Equal(got, want) {
			t.Fatalf("appendInt(%d) = %q, want %q", v, got, want)
		}
	}
}
