package server

import (
	"math"
	"math/bits"
	"strconv"
)

// The number kernels of the answer encoder. Both write exactly what
// strconv writes for the same value; they exist because an answer formats
// a few numbers per match and strconv's general paths cost more than the
// copies around them.

// digitPairs holds "00" through "99": two decimal digits per table read.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// appendInt appends v in decimal, as strconv.AppendInt does. Ids, interval
// ends and offsets stay below 10⁸ in practice, and most below 10⁴, which
// take one or two table reads; anything else takes strconv.
func appendInt(b []byte, v int64) []byte {
	if v < 0 || v >= 1e8 {
		return strconv.AppendInt(b, v, 10)
	}
	u := uint32(v)
	if u < 100 {
		if u < 10 {
			return append(b, byte('0'+u))
		}
		return append(b, digitPairs[u*2], digitPairs[u*2+1])
	}
	if u < 10000 {
		hi, lo := u/100, u%100*2
		if hi < 10 {
			return append(b, byte('0'+hi), digitPairs[lo], digitPairs[lo+1])
		}
		return append(b, digitPairs[hi*2], digitPairs[hi*2+1], digitPairs[lo], digitPairs[lo+1])
	}
	var buf [8]byte
	put8(buf[:], u)
	i := 0
	for buf[i] == '0' { // u >= 10^4: at most three
		i++
	}
	return append(b, buf[i:]...)
}

// appendShortest appends f as strconv.AppendFloat(b, f, 'f', -1, 64)
// does, for finite 1e-6 <= |f| < 1e21 only: the shortest decimal that
// reads back as f, the nearest to f among those of that length, ties to
// even, written without an exponent. The digits come from Schubfach
// (R. Giulietti, "The Schubfach way to render doubles", 2020), which finds
// them with three 64×126-bit products and no loop. Below that range a
// normal f needs table entries this file does not hold, a subnormal f
// would need Schubfach's two-digit rule, which strconv does not follow
// (4.9e-324 against 5e-324), and from 1e21 up encoding/json uses the
// exponent form.
func appendShortest(b []byte, f float64) []byte {
	fb := math.Float64bits(f)
	if fb>>63 != 0 {
		b = append(b, '-')
	}
	// f = c·2^q with 2^52 <= c < 2^53; q in [-72, 17] over the range.
	q := int(fb>>52&0x7ff) - 1075
	frac := fb & (1<<52 - 1)
	c := 1<<52 | frac

	// The rounding interval of f is [cbl, cbr]·2^(q-2), open when c is
	// odd (a boundary reads back as the even neighbour). Scaled by 10^-k,
	// the interval is at least 1 and less than 10 wide, so it holds a
	// multiple of 10^k and at most one of 10^(k+1).
	out := c & 1
	cb := c << 2
	cbr := cb + 2
	var cbl uint64
	var k int
	if frac != 0 {
		cbl = cb - 2
		k = floorLog10Pow2(q)
	} else {
		// At a power of two the gap below is half the gap above.
		cbl = cb - 1
		k = floorLog10ThreeQuartersPow2(q)
	}
	g := &pow10Table[k-pow10MinK]
	h := uint(q + floorLog2Pow10(-k) + 2)
	vb := roundToOdd(g[0], g[1], cb<<h)
	vbl := roundToOdd(g[0], g[1], cbl<<h)
	vbr := roundToOdd(g[0], g[1], cbr<<h)

	// s has 16 or 17 digits. One fewer, if exactly one multiple of
	// 10^(k+1) fits.
	s := vb >> 2
	sp10 := s / 10 * 10
	tp10 := sp10 + 10
	upin := vbl+out <= sp10<<2
	wpin := tp10<<2+out <= vbr
	if upin != wpin {
		if !upin {
			sp10 = tp10
		}
		return appendFixed(b, sp10, k)
	}
	t := s + 1
	uin := vbl+out <= s<<2
	win := t<<2+out <= vbr
	if uin != win {
		if !uin {
			s = t
		}
		return appendFixed(b, s, k)
	}
	// Both fit: the nearer to f, ties to the even one.
	if cmp := int64(vb - (s+t)<<1); cmp > 0 || cmp == 0 && s&1 != 0 {
		s = t
	}
	return appendFixed(b, s, k)
}

// roundToOdd returns g·cp / 2^127 rounded to odd, where g = g1·2^63 + g0:
// the product's integer part with its last bit set when the fraction the
// kept bits show is not zero (the paper proves the dropped ones cannot
// change the outcome).
func roundToOdd(g1, g0, cp uint64) uint64 {
	x1, _ := bits.Mul64(g0, cp)
	y1, y0 := bits.Mul64(g1, cp)
	z := y0>>1 + x1
	vbp := y1 + z>>63
	return vbp | (z&(1<<63-1)+(1<<63-1))>>63
}

// appendFixed appends d·10^e without an exponent and without trailing
// zeros: what strconv's 'f' format with precision -1 writes for it. d is
// below 10^17, as every appendShortest result is (s < 10·2^53).
func appendFixed(b []byte, d uint64, e int) []byte {
	var buf [17]byte
	put8(buf[9:], uint32(d%1e8))
	d /= 1e8
	put8(buf[1:], uint32(d%1e8))
	buf[0] = byte('0' + d/1e8)
	first, last := 0, len(buf)
	for buf[first] == '0' {
		first++
	}
	for buf[last-1] == '0' {
		last--
		e++
	}
	digits := buf[first:last]
	if e >= 0 {
		b = append(b, digits...)
		for ; e > 0; e-- {
			b = append(b, '0')
		}
		return b
	}
	point := len(digits) + e // digits before the decimal point
	if point > 0 {
		b = append(b, digits[:point]...)
		b = append(b, '.')
		return append(b, digits[point:]...)
	}
	b = append(b, '0', '.')
	for ; point < 0; point++ {
		b = append(b, '0')
	}
	return append(b, digits...)
}

// put8 writes v < 10^8 as exactly eight digits, leading zeros included:
// four table reads that do not wait on one another.
func put8(buf []byte, v uint32) {
	_ = buf[7]
	hi, lo := v/10000, v%10000
	a, b, c, d := hi/100*2, hi%100*2, lo/100*2, lo%100*2
	buf[0], buf[1] = digitPairs[a], digitPairs[a+1]
	buf[2], buf[3] = digitPairs[b], digitPairs[b+1]
	buf[4], buf[5] = digitPairs[c], digitPairs[c+1]
	buf[6], buf[7] = digitPairs[d], digitPairs[d+1]
}

// floorLog10Pow2 is ⌊q·log₁₀2⌋, floorLog10ThreeQuartersPow2 is
// ⌊log₁₀(¾·2^q)⌋ and floorLog2Pow10 is ⌊e·log₂10⌋, each as a fixed-point
// product (Giulietti's constants, exact far beyond the q this file sees;
// TestShortestExponentHelpers holds them over that range).
func floorLog10Pow2(q int) int { return q * 661_971_961_083 >> 41 }

func floorLog10ThreeQuartersPow2(q int) int { return (q*661_971_961_083 - 274_743_187_321) >> 41 }

func floorLog2Pow10(e int) int { return e * 913_124_641_741 >> 38 }

// pow10MinK is the least k appendShortest looks up: its range reaches k
// from floorLog10ThreeQuartersPow2(-72) = -22 to floorLog10Pow2(17) = 5.
const pow10MinK = -22

// pow10Table holds g(k) = ⌊10^-k / 2^r⌋ + 1 for k in [-22, 5], r chosen so
// that 2^125 <= 10^-k / 2^r < 2^126, split as {g >> 63, g mod 2^63}. A
// literal, so a process start computes nothing; TestPow10TableMatchesBig
// recomputes every entry with math/big.
var pow10Table = [...][2]uint64{
	{0x43c33c1937564800, 0x0000000000000001}, // -22
	{0x6c6b935b8bbd4000, 0x0000000000000001}, // -21
	{0x56bc75e2d6310000, 0x0000000000000001}, // -20
	{0x4563918244f40000, 0x0000000000000001}, // -19
	{0x6f05b59d3b200000, 0x0000000000000001}, // -18
	{0x58d15e1762800000, 0x0000000000000001}, // -17
	{0x470de4df82000000, 0x0000000000000001}, // -16
	{0x71afd498d0000000, 0x0000000000000001}, // -15
	{0x5af3107a40000000, 0x0000000000000001}, // -14
	{0x48c2739500000000, 0x0000000000000001}, // -13
	{0x746a528800000000, 0x0000000000000001}, // -12
	{0x5d21dba000000000, 0x0000000000000001}, // -11
	{0x4a817c8000000000, 0x0000000000000001}, // -10
	{0x7735940000000000, 0x0000000000000001}, // -9
	{0x5f5e100000000000, 0x0000000000000001}, // -8
	{0x4c4b400000000000, 0x0000000000000001}, // -7
	{0x7a12000000000000, 0x0000000000000001}, // -6
	{0x61a8000000000000, 0x0000000000000001}, // -5
	{0x4e20000000000000, 0x0000000000000001}, // -4
	{0x7d00000000000000, 0x0000000000000001}, // -3
	{0x6400000000000000, 0x0000000000000001}, // -2
	{0x5000000000000000, 0x0000000000000001}, // -1
	{0x4000000000000000, 0x0000000000000001}, // 0
	{0x6666666666666666, 0x3333333333333334}, // 1
	{0x51eb851eb851eb85, 0x0f5c28f5c28f5c29}, // 2
	{0x4189374bc6a7ef9d, 0x5916872b020c49bb}, // 3
	{0x68db8bac710cb295, 0x74f0d844d013a92b}, // 4
	{0x53e2d6238da3c211, 0x43f3e0370cdc8755}, // 5
}
