package server

import (
	"encoding/binary"
	"math"
	"math/bits"
	"strconv"
)

// The number kernel of the request decoder. It checks the JSON number
// grammar and builds the value in the same pass over the token, and it
// returns what strconv.ParseFloat returns for that token, bit for bit; it
// exists because a request carries hundreds of coordinates and strconv's
// general reader rescans each token the grammar check has just scanned.

// parseNumber reads the JSON number at the start of b. It returns the
// token's length n and the value strconv.ParseFloat(token, 64) returns:
// ±Inf exactly when strconv reports the token out of range. n is 0 when b
// does not start with a number; want then names what the grammar expected.
func parseNumber(b []byte) (f float64, n int, want string) {
	f, n, want, slow := scanNumber(b)
	if slow {
		f, _ = strconv.ParseFloat(string(b[:n]), 64) // out of range: ±Inf
	}
	return f, n, want
}

// scanNumber is parseNumber without the fallback: slow is set, and f left
// zero, for a well-formed token whose value it does not compute itself —
// more than 19 significant digits, a decimal exponent outside pow10x128
// (every overflow and subnormal among them), or a product Eisel–Lemire
// cannot round with certainty.
func scanNumber(b []byte) (f float64, n int, want string, slow bool) {
	i := 0
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		i++
	}
	// The token's value is man·10^q unless slow is set: man holds its
	// first nd ≤ 19 significant digits, and a nonzero digit past them sets
	// slow.
	var man uint64
	nd, q := 0, 0
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for ; i < len(b) && isDigit(b[i]); i++ {
			if nd < 19 {
				man = man*10 + uint64(b[i]-'0')
				nd++
			} else {
				q++
				slow = slow || b[i] != '0'
			}
		}
	default:
		return 0, 0, "a number", false
	}
	if i < len(b) && b[i] == '.' {
		i++
		start := i
		if man == 0 { // zeros before the first significant digit
			for i < len(b) && b[i] == '0' {
				i++
				q--
			}
		}
		for nd <= 19-8 && len(b)-i >= 8 {
			v := binary.LittleEndian.Uint64(b[i:])
			if !eightDigits(v) {
				break
			}
			man = man*1e8 + parseEightDigits(v)
			nd += 8
			q -= 8
			i += 8
		}
		for ; i < len(b) && isDigit(b[i]); i++ {
			if nd < 19 {
				man = man*10 + uint64(b[i]-'0')
				nd++
				q--
			} else {
				slow = slow || b[i] != '0'
			}
		}
		if i == start {
			return 0, 0, "a number with digits after '.'", false
		}
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		start := i
		e := 0
		for ; i < len(b) && isDigit(b[i]); i++ {
			if e < 1e8 { // past this, only a zero man keeps the fast path
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == start {
			return 0, 0, "a number with digits in its exponent", false
		}
		if e >= 1e8 {
			slow = slow || man != 0
		}
		if eneg {
			e = -e
		}
		q += e
	}
	n = i
	switch {
	case man == 0:
	case slow:
		return 0, n, "", true
	case man <= 1<<53 && -22 <= q && q <= 22:
		// Clinger's fast path: man and 10^|q| are exact float64s, so one
		// correctly rounded operation rounds the exact value.
		f = float64(man)
		if q < 0 {
			f /= float64Pow10[-q]
		} else {
			f *= float64Pow10[q]
		}
	case pow10x128MinQ <= q && q < pow10x128MinQ+len(pow10x128):
		var ok bool
		if f, ok = eiselLemire(man, q); !ok {
			return 0, n, "", true
		}
	default:
		return 0, n, "", true
	}
	if neg {
		f = -f
	}
	return f, n, "", false
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// eightDigits reports whether all eight bytes of v, read little-endian,
// are ASCII digits: each byte's high nibble is 3, and adding 6 to its low
// nibble does not carry into the high one.
func eightDigits(v uint64) bool {
	return v&0xf0f0f0f0f0f0f0f0|(v+0x0606060606060606)&0xf0f0f0f0f0f0f0f0>>4 == 0x3333333333333333
}

// parseEightDigits returns the number the eight ASCII digits of v spell,
// the first in the lowest byte: three multiply-and-shift steps each merge
// neighbouring groups (digits into pairs, pairs into fours, fours into one
// value) in every lane at once.
func parseEightDigits(v uint64) uint64 {
	v -= 0x3030303030303030
	v = v*10 + v>>8 // byte 2k holds the pair 10·d[2k] + d[2k+1]
	const mask = 0x000000ff000000ff
	v = ((v&mask)*(100+1_000_000<<32) + (v>>16&mask)*(1+10_000<<32)) >> 32
	return v & 0xffffffff
}

// eiselLemire returns man·10^q correctly rounded, for man != 0 and q in
// pow10x128's range, or ok false when the 128-bit product leaves the
// rounding undecided (D. Lemire, "Number parsing at a gigabyte per
// second", Software: Practice and Experience 51(8), 2021). Over that range
// the result is always a normal, finite float64.
func eiselLemire(man uint64, q int) (f float64, ok bool) {
	// Normalize man to a set top bit; 10^q lies in [2^e, 2^(e+1)) with
	// e = ⌊q·log₂10⌋ (217706/2^16 is log₂10 closely enough over the table).
	lz := bits.LeadingZeros64(man)
	man <<= uint(lz)
	exp := uint64(217706*q>>16+64+1023) - uint64(lz)

	// The top 64 bits of man·10^q, from the table's high word. When the
	// low bits left for rounding are all ones and the low word might carry,
	// the table's low word decides; if it cannot, give up.
	p := &pow10x128[q-pow10x128MinQ]
	hi, lo := bits.Mul64(man, p[0])
	if hi&0x1ff == 0x1ff && lo+man < man {
		hi2, lo2 := bits.Mul64(man, p[1])
		mhi, mlo := hi, lo+hi2
		if mlo < lo {
			mhi++
		}
		if mhi&0x1ff == 0x1ff && mlo+1 == 0 && lo2+man < man {
			return 0, false
		}
		hi, lo = mhi, mlo
	}

	// Keep 54 bits, then round the 54th away to nearest-even. A product
	// that sits exactly halfway in the truncated table could be just above
	// or just below in the exact one: undecided.
	top := hi >> 63
	m := hi >> (top + 9)
	exp -= 1 ^ top
	if lo == 0 && hi&0x1ff == 0 && m&3 == 1 {
		return 0, false
	}
	m += m & 1
	m >>= 1
	if m>>53 > 0 {
		m >>= 1
		exp++
	}
	return math.Float64frombits(exp<<52 | m&(1<<52-1)), true
}

// float64Pow10 holds 10^0 through 10^22, every power of ten a float64
// holds exactly.
var float64Pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// pow10x128MinQ is the least decimal exponent pow10x128 holds.
const pow10x128MinQ = -40

// pow10x128 holds, for q in [-40, 22], ⌊10^q·2^s⌋ with s chosen so that
// the value lies in [2^127, 2^128), split as {high 64 bits, low 64 bits}:
// exact for q ≥ 0, rounded down below. The range covers every coordinate a
// shortest-form float64 writer emits between 1e-21 and 1e22, with room to
// spare. A literal, so a process start computes nothing;
// TestPow10x128MatchesBig recomputes every entry with math/big.
var pow10x128 = [...][2]uint64{
	{0x8b61313bbabce2c6, 0x2323ac4b3b3da015}, // -40
	{0xae397d8aa96c1b77, 0xabec975e0a0d081a}, // -39
	{0xd9c7dced53c72255, 0x96e7bd358c904a21}, // -38
	{0x881cea14545c7575, 0x7e50d64177da2e54}, // -37
	{0xaa242499697392d2, 0xdde50bd1d5d0b9e9}, // -36
	{0xd4ad2dbfc3d07787, 0x955e4ec64b44e864}, // -35
	{0x84ec3c97da624ab4, 0xbd5af13bef0b113e}, // -34
	{0xa6274bbdd0fadd61, 0xecb1ad8aeacdd58e}, // -33
	{0xcfb11ead453994ba, 0x67de18eda5814af2}, // -32
	{0x81ceb32c4b43fcf4, 0x80eacf948770ced7}, // -31
	{0xa2425ff75e14fc31, 0xa1258379a94d028d}, // -30
	{0xcad2f7f5359a3b3e, 0x096ee45813a04330}, // -29
	{0xfd87b5f28300ca0d, 0x8bca9d6e188853fc}, // -28
	{0x9e74d1b791e07e48, 0x775ea264cf55347d}, // -27
	{0xc612062576589dda, 0x95364afe032a819d}, // -26
	{0xf79687aed3eec551, 0x3a83ddbd83f52204}, // -25
	{0x9abe14cd44753b52, 0xc4926a9672793542}, // -24
	{0xc16d9a0095928a27, 0x75b7053c0f178293}, // -23
	{0xf1c90080baf72cb1, 0x5324c68b12dd6338}, // -22
	{0x971da05074da7bee, 0xd3f6fc16ebca5e03}, // -21
	{0xbce5086492111aea, 0x88f4bb1ca6bcf584}, // -20
	{0xec1e4a7db69561a5, 0x2b31e9e3d06c32e5}, // -19
	{0x9392ee8e921d5d07, 0x3aff322e62439fcf}, // -18
	{0xb877aa3236a4b449, 0x09befeb9fad487c2}, // -17
	{0xe69594bec44de15b, 0x4c2ebe687989a9b3}, // -16
	{0x901d7cf73ab0acd9, 0x0f9d37014bf60a10}, // -15
	{0xb424dc35095cd80f, 0x538484c19ef38c94}, // -14
	{0xe12e13424bb40e13, 0x2865a5f206b06fb9}, // -13
	{0x8cbccc096f5088cb, 0xf93f87b7442e45d3}, // -12
	{0xafebff0bcb24aafe, 0xf78f69a51539d748}, // -11
	{0xdbe6fecebdedd5be, 0xb573440e5a884d1b}, // -10
	{0x89705f4136b4a597, 0x31680a88f8953030}, // -9
	{0xabcc77118461cefc, 0xfdc20d2b36ba7c3d}, // -8
	{0xd6bf94d5e57a42bc, 0x3d32907604691b4c}, // -7
	{0x8637bd05af6c69b5, 0xa63f9a49c2c1b10f}, // -6
	{0xa7c5ac471b478423, 0x0fcf80dc33721d53}, // -5
	{0xd1b71758e219652b, 0xd3c36113404ea4a8}, // -4
	{0x83126e978d4fdf3b, 0x645a1cac083126e9}, // -3
	{0xa3d70a3d70a3d70a, 0x3d70a3d70a3d70a3}, // -2
	{0xcccccccccccccccc, 0xcccccccccccccccc}, // -1
	{0x8000000000000000, 0x0000000000000000}, // 0
	{0xa000000000000000, 0x0000000000000000}, // 1
	{0xc800000000000000, 0x0000000000000000}, // 2
	{0xfa00000000000000, 0x0000000000000000}, // 3
	{0x9c40000000000000, 0x0000000000000000}, // 4
	{0xc350000000000000, 0x0000000000000000}, // 5
	{0xf424000000000000, 0x0000000000000000}, // 6
	{0x9896800000000000, 0x0000000000000000}, // 7
	{0xbebc200000000000, 0x0000000000000000}, // 8
	{0xee6b280000000000, 0x0000000000000000}, // 9
	{0x9502f90000000000, 0x0000000000000000}, // 10
	{0xba43b74000000000, 0x0000000000000000}, // 11
	{0xe8d4a51000000000, 0x0000000000000000}, // 12
	{0x9184e72a00000000, 0x0000000000000000}, // 13
	{0xb5e620f480000000, 0x0000000000000000}, // 14
	{0xe35fa931a0000000, 0x0000000000000000}, // 15
	{0x8e1bc9bf04000000, 0x0000000000000000}, // 16
	{0xb1a2bc2ec5000000, 0x0000000000000000}, // 17
	{0xde0b6b3a76400000, 0x0000000000000000}, // 18
	{0x8ac7230489e80000, 0x0000000000000000}, // 19
	{0xad78ebc5ac620000, 0x0000000000000000}, // 20
	{0xd8d726b7177a8000, 0x0000000000000000}, // 21
	{0x878678326eac9000, 0x0000000000000000}, // 22
}
