package stream

import (
	"math"
	"math/bits"
	"strconv"
)

// appendFloat appends the shortest decimal that reads back as v, laid
// out exactly as strconv.AppendFloat(b, v, 'g', -1, 64) lays it out,
// for every finite v. It is the one float encoder of the row writers;
// the callers map NaN and ±Inf to their format's missing value first.
//
// The decimal comes from Schubfach (R. Giulietti, "The Schubfach way to
// render doubles", the algorithm behind Java 19's Double.toString):
// three round-to-odd products against a 126-bit power of ten give the
// scaled value and both ends of its rounding interval, and at most one
// shorter length is tried — no digit loop. Java's rule of at least two
// digits is left out, so the result is strconv's: the shortest decimal
// in the interval, the one nearest v among those, ties to even.
func appendFloat(b []byte, v float64) []byte {
	u := math.Float64bits(v)
	if u>>63 != 0 {
		b = append(b, '-')
	}
	t := u & (1<<52 - 1)
	bq := int(u>>52) & 0x7ff // biased exponent; 0 for zero and subnormals
	q, c := bq-1075, t|1<<52
	if bq == 0 {
		if t == 0 {
			return append(b, '0')
		}
		q, c = -1074, t
	}
	f, e := shortest(q, c, t == 0 && bq > 1)
	return appendDecimal(b, f, e)
}

// shortest returns the shortest decimal f×10^e, nearest on ties of
// length and then even, that rounds back to c×2^q. irregular marks a
// power of two above the smallest normal, whose lower neighbour is half
// as far away as its upper one.
func shortest(q int, c uint64, irregular bool) (f uint64, e int) {
	out := c & 1 // the interval's ends round back to c only when c is even
	cb := c << 2
	cbl, cbr := cb-2, cb+2
	k := flog10pow2(q)
	if irregular {
		cbl = cb - 1
		k = flog10ThreeQuartersPow2(q)
	}
	// vb, vbl, vbr are 4×(v, lower end, upper end)/10^k rounded to odd,
	// which keeps every comparison below exact.
	h := q + flog2pow10(-k) + 2
	g := &pow10g[k-pow10gMinK]
	vb := rop(g[0], g[1], cb<<h)
	vbl := rop(g[0], g[1], cbl<<h)
	vbr := rop(g[0], g[1], cbr<<h)
	s := vb >> 2

	// The interval is narrower than 10^(k+1), so it holds at most one
	// multiple of 10^(k+1); when it does, that is the shortest decimal.
	s1 := s / 10
	upin := vbl+out <= s1*40
	wpin := (s1+1)*40+out <= vbr
	if upin != wpin {
		if upin {
			return s1, k + 1
		}
		return s1 + 1, k + 1
	}
	// Otherwise one of s×10^k, (s+1)×10^k: the one inside, or the
	// nearer to v, the even one on a tie.
	uin := vbl+out <= s<<2
	win := (s+1)<<2+out <= vbr
	if uin != win {
		if uin {
			return s, k
		}
		return s + 1, k
	}
	if d := vb - s<<2; d < 2 || d == 2 && s&1 == 0 {
		return s, k
	}
	return s + 1, k
}

// rop returns cp×g/2¹²⁷ rounded to odd, where g = g1×2⁶³ + g0 is a
// table entry and cp < 2⁶³.
func rop(g1, g0, cp uint64) uint64 {
	x1, _ := bits.Mul64(g0, cp)
	y1, y0 := bits.Mul64(g1, cp)
	z := y0>>1 + x1
	const mask63 = 1<<63 - 1
	return (y1 + z>>63) | (z&mask63+mask63)>>63
}

// flog10pow2 is ⌊log₁₀ 2^e⌋. This and the two floor logarithms below
// are exact by fixed-point arithmetic over the exponents a float64
// needs (TestShortestTableMatchesBig checks them).
func flog10pow2(e int) int { return int(int64(e) * 661_971_961_083 >> 41) }

// flog10ThreeQuartersPow2 is ⌊log₁₀ (¾×2^e)⌋.
func flog10ThreeQuartersPow2(e int) int {
	return int((int64(e)*661_971_961_083 - 274_743_187_321) >> 41)
}

// flog2pow10 is ⌊log₂ 10^e⌋.
func flog2pow10(e int) int { return int(int64(e) * 913_124_641_741 >> 38) }

// pow10u64 holds 10^0 … 10^17.
var pow10u64 = [...]uint64{
	1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8,
	1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17,
}

// appendDecimal appends f×10^e (0 < f < 10¹⁷) in strconv's 'g' layout
// for shortest digits: %e when the decimal exponent is below −4 or at
// least 6, with an exponent of at least two digits, and %f otherwise.
// The digits are laid out in place, in b's spare capacity.
func appendDecimal(b []byte, f uint64, e int) []byte {
	for f%10 == 0 {
		f /= 10
		e++
	}
	n := flog10pow2(bits.Len64(f))
	if f >= pow10u64[n] {
		n++
	}
	dp := n + e // the decimal point sits after the first dp digits
	b = grow(b, 32)
	o := len(b)
	d := (*[32]byte)(b[o : o+32])
	switch x := dp - 1; {
	case x < -4 || x >= 6:
		// d.ddd…e±xx: the digits go in one place to the right, then the
		// first moves back over the point.
		putDigits(d, 1, f, n)
		d[0], d[1] = d[1], '.'
		i := n + 1
		if n == 1 {
			i = 1
		}
		d[i] = 'e'
		d[i+1] = '+'
		if x < 0 {
			d[i+1] = '-'
			x = -x
		}
		i += 2
		if x >= 100 {
			d[i] = byte('0' + x/100)
			x %= 100
			i++
		}
		d[i], d[i+1] = byte('0'+x/10), byte('0'+x%10)
		return b[:o+i+2]
	case dp <= 0:
		// 0.000ddd…
		z := 2 - dp
		d[0], d[1], d[2], d[3], d[4] = '0', '.', '0', '0', '0'
		putDigits(d, z, f, n)
		return b[:o+z+n]
	case dp >= n:
		// ddd000: putDigits pads with zeros up to its 17th digit.
		putDigits(d, 0, f, n)
		return b[:o+dp]
	default:
		// ddd.ddd
		putDigits(d, 1, f, n)
		copy(d[:dp], d[1:dp+1])
		d[dp] = '.'
		return b[:o+n+1]
	}
}

// grow returns b with room for at least n bytes past its length, where
// the encoders write their digits in place.
func grow(b []byte, n int) []byte {
	if cap(b)-len(b) < n {
		b = append(b, make([]byte, n)...)[:len(b)]
	}
	return b
}

// putDigits writes the n-digit f left-aligned at buf[o:], padded with
// zeros: 1 digit, then 8-digit blocks in one store each. Digits beyond
// the 9th are written only when f has them.
func putDigits(buf *[32]byte, o int, f uint64, n int) {
	f *= pow10u64[17-n]
	hi, lo := f/1e8, f%1e8
	buf[o] = byte('0' + hi/1e8)
	put8(buf[o+1:], digits8(hi%1e8))
	if n > 9 {
		put8(buf[o+9:], digits8(lo))
	}
}

// put8 stores v little-endian into d[:8]; the compiler merges the byte
// stores into one.
func put8(d []byte, v uint64) {
	_ = d[7]
	d[0], d[1], d[2], d[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	d[4], d[5], d[6], d[7] = byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56)
}

// digits8 returns the 8 ASCII digits of x < 10⁸, the first in the low
// byte, computed in SIMD-within-a-register lanes: 4-digit halves in
// 32-bit lanes, 2-digit quarters in 16-bit lanes, digits in bytes. The
// multiply-shifts divide exactly for lane values below 10⁴ and 10².
func digits8(x uint64) uint64 {
	v := x/1e4 | x%1e4<<32
	t := v * 10486 >> 20 & 0x0000007f_0000007f // /100
	v = t | (v-t*100)<<16
	t = v * 103 >> 10 & 0x000f000f_000f000f // /10
	v = t | (v-t*10)<<8
	return v + 0x30303030_30303030
}

// appendUint appends v in decimal, the bytes of strconv.AppendInt(b, v,
// 10). It is the one integer encoder of the row writers. Values in
// [0, 10¹⁶), which covers every row index and shape of a sweep, take
// one or two digits8 blocks, stored in b's spare capacity with their
// leading zeros shifted out; the rest go to strconv.
func appendUint(b []byte, v int64) []byte {
	if v < 0 || v >= 1e16 {
		return strconv.AppendInt(b, v, 10)
	}
	b = grow(b, 16)
	o := len(b)
	d := b[o : o+16]
	u := uint64(v)
	if u < 1e8 {
		x := digits8(u)
		z := min(leadingZeroDigits(x), 7)
		put8(d, x>>(8*z))
		return b[:o+8-z]
	}
	x := digits8(u / 1e8)
	z := leadingZeroDigits(x)
	put8(d, x>>(8*z))
	put8(d[8-z:], digits8(u%1e8))
	return b[:o+16-z]
}

// leadingZeroDigits counts the '0' characters that open the 8 digits d
// of digits8, whose first digit sits in the low byte.
func leadingZeroDigits(d uint64) int {
	return bits.TrailingZeros64(d^0x30303030_30303030) >> 3
}

// pow10g spans the decimal exponents k of every float64's interval.
const (
	pow10gMinK = -324
	pow10gMaxK = 292
)
