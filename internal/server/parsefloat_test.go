package server

import (
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiment"
)

// numberChecker holds parseNumber to strconv.ParseFloat on one token at a
// time, counting the tokens that left the fast path.
type numberChecker struct {
	buf     []byte
	n, slow int
}

// check parses tok followed by a delimiter, so the kernel must also stop
// at the token's end, and compares value bits and range error.
func (c *numberChecker) check(t testing.TB, tok string) {
	t.Helper()
	c.buf = append(append(c.buf[:0], tok...), ',')
	f, n, want := parseNumber(c.buf)
	if n != len(tok) || want != "" {
		t.Fatalf("parseNumber(%q) read %d bytes (want %q), the token has %d", tok, n, want, len(tok))
	}
	ref, err := strconv.ParseFloat(tok, 64)
	if math.Float64bits(f) != math.Float64bits(ref) || math.IsInf(f, 0) != (err != nil) {
		t.Fatalf("parseNumber(%q) = %v (%#016x), strconv = %v (%#016x, %v)", tok, f, math.Float64bits(f), ref, math.Float64bits(ref), err)
	}
	c.n++
	if _, _, _, slow := scanNumber(c.buf); slow {
		c.slow++
	}
}

// TestParseNumberMatchesStrconv: the kernel returns strconv's bits, and
// strconv's range error, on tokens aimed at each of its paths — Clinger's,
// Eisel–Lemire's with its undecided cases, and the fallback past 19
// digits, past the table and out of range.
func TestParseNumberMatchesStrconv(t *testing.T) {
	var c numberChecker
	rng := rand.New(rand.NewSource(44))
	formats := []byte{'f', 'e', 'g'}

	// Random bit patterns, shortest and truncated, in every format.
	for i := 0; i < 60_000; i++ {
		f := math.Float64frombits(rng.Uint64())
		if math.IsInf(f, 0) || math.IsNaN(f) {
			continue
		}
		fmtc := formats[i%3]
		c.check(t, strconv.FormatFloat(f, fmtc, -1, 64))
		c.check(t, strconv.FormatFloat(f, fmtc, rng.Intn(21), 64))
	}
	// Log-uniform values over [1e-21, 1e22), the range pow10x128 is sized
	// for. Their shortest forms take the fast path, except where the
	// shortest form is the value's exact binary expansion (man > 2^53 and
	// q < 0, common above 1e13, where a float64 keeps few fraction bits):
	// the truncated table leaves Eisel–Lemire undecided there, as it does
	// inside strconv. A shrunken table or a broken digit loop would send
	// far more than 1 % to the fallback.
	slow := c.slow
	const logUniform = 200_000
	for i := 0; i < logUniform; i++ {
		f := math.Pow(10, -21+43*rng.Float64())
		if rng.Intn(2) == 0 {
			f = -f
		}
		c.check(t, strconv.FormatFloat(f, formats[i%3], -1, 64))
	}
	if n := c.slow - slow; n > logUniform/100 {
		t.Errorf("%d of %d shortest-form values between 1e-21 and 1e22 left the fast path, want at most 1 %%", n, logUniform)
	}

	// One ulp either side of every power of ten and of two.
	near := func(p float64) {
		for _, f := range []float64{p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1))} {
			if math.IsInf(f, 0) {
				continue
			}
			for _, fmtc := range formats {
				c.check(t, strconv.FormatFloat(f, fmtc, -1, 64))
				c.check(t, strconv.FormatFloat(-f, fmtc, 17, 64))
			}
		}
	}
	for e := -325; e <= 308; e++ {
		p, _ := strconv.ParseFloat("1e"+strconv.Itoa(e), 64)
		near(p)
	}
	for e := -1074; e <= 1023; e++ {
		near(math.Ldexp(1, e))
	}

	// Halfway between two neighbouring float64s: 2^53+1 rounds to even,
	// and so must every (2m+1)·2^(s-1) above 2^53, written whole or with
	// its decimal point moved and an exponent to make up for it, and its
	// neighbours one unit either side.
	c.check(t, "9007199254740993")
	c.check(t, "9007199254740993e0")
	c.check(t, "900719925474099.3e1")
	for i := 0; i < 20_000; i++ {
		m := uint64(1)<<52 | rng.Uint64()>>12
		h := (2*m + 1) << uint(rng.Intn(11))
		for _, v := range []uint64{h - 1, h, h + 1} {
			s := strconv.FormatUint(v, 10)
			c.check(t, s)
			at := 1 + rng.Intn(len(s)-1)
			c.check(t, fmt.Sprintf("%s.%se%d", s[:at], s[at:], len(s)-at))
		}
	}
	// Halfway points in [1, 2), exactly (53 fraction digits, the fallback)
	// and cut to 16–20 significant digits: near-halfway products that
	// Eisel–Lemire must round or hand on.
	five53 := new(big.Int).Exp(big.NewInt(5), big.NewInt(53), nil)
	for i := 0; i < 5_000; i++ {
		m := rng.Uint64() >> 12
		num := new(big.Int).SetUint64(1<<53 | (2*m + 1))
		digits := num.Mul(num, five53).String() // the halfway point times 10^53
		exact := digits[:1] + "." + digits[1:]
		c.check(t, exact)
		for cut := 16; cut <= 20; cut++ {
			c.check(t, exact[:cut+1])
		}
	}

	// 19- and 20-digit mantissas, trailing zeros included, whole, as
	// fractions and with exponents.
	for _, s := range []string{
		"1000000000000000000", "9999999999999999999", "18446744073709551615", "18446744073709551616",
		"10000000000000000000", "12345678901234567890", "12345678901234567891", "99999999999999999999",
		"0.1234567890123456789", "0.12345678901234567890000", "0.12345678901234567891", "1234567890.123456789",
		"9223372036854775807", "9223372036854775808e-30", "1000000000000000000000000000000e-10",
	} {
		c.check(t, s)
		c.check(t, "-"+s)
	}
	for i := 0; i < 20_000; i++ {
		s := strconv.FormatUint(1e18+rng.Uint64()%(9e18), 10) // 19 digits
		if i%2 == 1 {
			s += strings.Repeat("0", 1+rng.Intn(3))
		}
		at := 1 + rng.Intn(len(s)-1)
		c.check(t, s)
		c.check(t, s[:at]+"."+s[at:])
		c.check(t, fmt.Sprintf("%se%d", s, rng.Intn(60)-40))
	}

	// Long runs of zeros before a fraction's first significant digit.
	for z := 0; z <= 340; z++ {
		zeros := strings.Repeat("0", z)
		c.check(t, "0."+zeros+"1")
		c.check(t, "-0."+zeros+"7045607756726964")
		c.check(t, "0."+zeros+"12345678901234567890123")
		c.check(t, "0."+zeros+"123e"+strconv.Itoa(z))
	}

	// The table's edges and one past each: q = -41, -40, 22 and 23, with
	// mantissas above 2^53 so that Clinger's path cannot take them.
	for _, q := range []int{pow10x128MinQ - 1, pow10x128MinQ, pow10x128MinQ + len(pow10x128) - 1, pow10x128MinQ + len(pow10x128)} {
		for i := 0; i < 2_000; i++ {
			man := uint64(1)<<53 + rng.Uint64()%(1e19-1<<53)
			if i < 3 {
				man = []uint64{1, 1<<53 + 1, 1e19 - 1}[i]
			}
			c.check(t, fmt.Sprintf("%de%d", man, q))
		}
	}

	// Zeros, and values past float64's range both ways.
	for _, s := range []string{
		"0", "-0", "0.0", "-0.000", "0e0", "-0E-0", "0e999999999999", "-0e-999999999999", "0.000e99999999999999999999",
		"1e-400", "-1e-400", "1e400", "-1e400", "1e99999999999999999999", "1e-99999999999999999999",
		"4.9e-324", "2.4703282292062328e-324", "2.2250738585072011e-308", "2.2250738585072014e-308",
		"1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308",
		"123456789012345678901234567890.123456789012345678901234567890e-10",
	} {
		c.check(t, s)
	}
	t.Logf("%d tokens, %d through strconv", c.n, c.slow)
}

// TestParseNumberGrammarErrors: the three grammar errors, and the range
// error, with the text and offsets the decoder gave before the kernel: a
// grammar error names the token's first byte.
func TestParseNumberGrammarErrors(t *testing.T) {
	for _, tc := range []struct{ body, err string }{
		{`{"eps":-}`, "invalid character '-' at offset 7, want a number"},
		{`{"eps":1.}`, "invalid character '1' at offset 7, want a number with digits after '.'"},
		{`{"eps":1.e5}`, "invalid character '1' at offset 7, want a number with digits after '.'"},
		{`{"eps":1e}`, "invalid character '1' at offset 7, want a number with digits in its exponent"},
		{`{"eps":-1E+}`, "invalid character '-' at offset 7, want a number with digits in its exponent"},
		{`{"eps":.5}`, "invalid character '.' at offset 7, want a number"},
		{`{"eps":+1}`, "invalid character '+' at offset 7, want a number"},
		{`{"eps":1e999}`, "number 1e999 does not fit a float64"},
		{`{"points":[[0.5,-x]]}`, "invalid character '-' at offset 16, want a number"},
		{`{"points":[[0.5,7.]]}`, "invalid character '7' at offset 16, want a number with digits after '.'"},
		{`{"points":[[0.5,2e-]]}`, "invalid character '2' at offset 16, want a number with digits in its exponent"},
		{`{"points":[[0.5,-1e400]]}`, "number -1e400 does not fit a float64"},
		{`{"points":[[0.5,3`, "unexpected end of JSON input, want ',' or ']'"},
		{`{"k":1.}`, "invalid character '1' at offset 5, want a number with digits after '.'"},
		{`{"id":-}`, "invalid character '-' at offset 6, want a number"},
		{`{"eps":`, "unexpected end of JSON input, want a number"},
	} {
		var b body
		if err := decodeRequest([]byte(tc.body), searchFields|fK|fID, &b); err == nil || err.Error() != tc.err {
			t.Errorf("%s: error %v, want %q", tc.body, err, tc.err)
		}
	}
}

// FuzzParseNumber: whatever the bytes, a token the kernel accepts is a
// JSON number, and its value and range error are strconv's.
func FuzzParseNumber(f *testing.F) {
	for _, s := range []string{
		"0", "-0", "0.7045607756726964", "9007199254740993", "1e-400", "1e400", "0e999999999999",
		"12345678901234567890", "0.00000000000000000000001", "1.5e22", "8.5e-41", "-", "1.", "1e+", "01",
		"123456781234567812345678", "0.12345678x", "4.9e-324", "1.7976931348623159e308",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		got, n, want := parseNumber(b)
		if n == 0 {
			if want == "" {
				t.Fatalf("parseNumber(%q) read nothing and named no error", b)
			}
			return
		}
		tok := b[:n]
		if want != "" || !json.Valid(tok) {
			t.Fatalf("parseNumber(%q) accepted %q (want %q), not a JSON number", b, tok, want)
		}
		ref, err := strconv.ParseFloat(string(tok), 64)
		if math.Float64bits(got) != math.Float64bits(ref) || math.IsInf(got, 0) != (err != nil) {
			t.Fatalf("parseNumber(%q) = %v (%#016x), strconv = %v (%#016x, %v)", tok, got, math.Float64bits(got), ref, math.Float64bits(ref), err)
		}
	})
}

// TestPow10x128MatchesBig recomputes every pow10x128 entry from its
// definition with math/big: ⌊10^q·2^s⌋ in [2^127, 2^128).
func TestPow10x128MatchesBig(t *testing.T) {
	for i, p := range pow10x128 {
		q := pow10x128MinQ + i
		ten := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(absInt(q))), nil)
		num, den := big.NewInt(1), big.NewInt(1)
		if q >= 0 {
			num = ten
		} else {
			den = ten
		}
		// s makes num·2^s/den land in [2^127, 2^128).
		s := 127 - (num.BitLen() - den.BitLen())
		for {
			n, d := new(big.Int).Set(num), new(big.Int).Set(den)
			if s >= 0 {
				n.Lsh(n, uint(s))
			} else {
				d.Lsh(d, uint(-s))
			}
			want := n.Quo(n, d)
			switch bl := want.BitLen(); {
			case bl < 128:
				s++
				continue
			case bl > 128:
				s--
				continue
			}
			got := new(big.Int).Lsh(new(big.Int).SetUint64(p[0]), 64)
			got.Or(got, new(big.Int).SetUint64(p[1]))
			if got.Cmp(want) != 0 {
				t.Errorf("pow10x128 q=%d = {%#x, %#x}, want %#x", q, p[0], p[1], want)
			}
			break
		}
	}
	if lo, hi := pow10x128MinQ, pow10x128MinQ+len(pow10x128)-1; lo > -40 || hi < 22 {
		t.Errorf("pow10x128 covers q in [%d, %d], want at least [-40, 22]", lo, hi)
	}
}

// TestCorpusCoordinatesTakeFastPath: every coordinate of the Table 2
// synthetic and video corpora, as encoding/json writes it, is parsed by
// the kernel itself, never by the strconv fallback — else the gain would
// not reach the requests the server sees — to the bits it was written
// from, and without allocating.
func TestCorpusCoordinatesTakeFastPath(t *testing.T) {
	for _, cfg := range []experiment.Config{experiment.PaperSynthetic(), experiment.PaperVideo()} {
		data, err := experiment.GenerateData(cfg)
		if err != nil {
			t.Fatal(err)
		}
		coords := 0
		for _, seq := range data {
			body, err := json.Marshal(seq.Points)
			if err != nil {
				t.Fatal(err)
			}
			k := 0
			for i := 0; i < len(body); {
				if c := body[i]; c != '-' && !isDigit(c) {
					i++
					continue
				}
				f, n, want, slow := scanNumber(body[i:])
				p, j := seq.Points[k/seq.Dim()], k%seq.Dim()
				if n == 0 || slow || math.Float64bits(f) != math.Float64bits(p[j]) {
					t.Fatalf("%v %q: scanNumber = %v, %d bytes (%q), slow %v; written from %v", cfg.Workload, body[i:i+max(n, 1)], f, n, want, slow, p[j])
				}
				i += n
				k++
			}
			if k != seq.Len()*seq.Dim() {
				t.Fatalf("%v: read %d coordinates of %d", cfg.Workload, k, seq.Len()*seq.Dim())
			}
			coords += k
		}
		t.Logf("%v: %d coordinates, all on the fast path", cfg.Workload, coords)
	}
	tok := []byte("0.7045607756726964,")
	if n := testing.AllocsPerRun(100, func() { parseNumber(tok) }); n != 0 {
		t.Errorf("parseNumber allocates %v times on the fast path, want 0", n)
	}
}
