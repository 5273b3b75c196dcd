package stream

import (
	"bytes"
	"fmt"
	"go/format"
	"math"
	"math/big"
	"math/bits"
	"math/rand"
	"os"
	"strconv"
	"testing"
)

// checkAppendFloat fails unless appendFloat writes v exactly as
// strconv's shortest 'g' formatting does.
func checkAppendFloat(t *testing.T, v float64) {
	t.Helper()
	want := strconv.AppendFloat(nil, v, 'g', -1, 64)
	if got := appendFloat(nil, v); !bytes.Equal(got, want) {
		t.Fatalf("appendFloat(%#016x) = %s, strconv writes %s", math.Float64bits(v), got, want)
	}
}

// TestAppendFloatMatchesStrconv is the differential test of the float
// encoder: the edge values of the shortest-decimal core and of the 'g'
// layout, then seeded random bit patterns over the whole finite range.
func TestAppendFloatMatchesStrconv(t *testing.T) {
	var edges []float64
	for _, v := range specialFloats {
		if !nonFinite(v) {
			edges = append(edges, v)
		}
	}
	// Every power of two is an irregular rounding interval (the
	// smallest normal and the subnormals are regular ones).
	for e := -1074; e <= 1023; e++ {
		p := math.Ldexp(1, e)
		edges = append(edges, p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1)))
	}
	for e := -323; e <= 308; e++ {
		p, err := strconv.ParseFloat("1e"+strconv.Itoa(e), 64)
		if err != nil {
			t.Fatal(err)
		}
		edges = append(edges, p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1)))
	}
	// The %e/%f switch points, integers around 2⁵³ and the largest
	// values with few digits.
	edges = append(edges, 1e-5, 9.9999e-5, 1e-4, 1.0001e-4, 999999, 999999.4, 999999.5, 999999.9999,
		1e6, 1000001, 1e21, 1e23, 123456, 1234567, 0.1, 0.3, 2.5e-5,
		1<<53-1, 1<<53, 1<<53+2, 1<<52+1, 1<<52-0.5, 9007199254740993, math.MaxInt64,
		math.Float64frombits(1), math.Float64frombits(2), math.Float64frombits(3), math.Float64frombits(1<<52-1))
	// The smallest subnormals, whose shortest forms have one or two digits.
	for u := uint64(1); u <= 1<<12; u++ {
		edges = append(edges, math.Float64frombits(u))
	}
	for _, v := range edges {
		checkAppendFloat(t, v)
		checkAppendFloat(t, -v)
	}

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1_000_000; i++ {
		v := math.Float64frombits(rng.Uint64())
		if nonFinite(v) {
			continue
		}
		checkAppendFloat(t, v)
	}
}

// FuzzAppendFloat compares the float encoder with strconv on arbitrary
// bit patterns.
func FuzzAppendFloat(f *testing.F) {
	for _, v := range specialFloats {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, u uint64) {
		if v := math.Float64frombits(u); !nonFinite(v) {
			checkAppendFloat(t, v)
		}
	})
}

// bigFloorLog10 is ⌊log₁₀(num/2^m)⌋ for an integer num > 0 and m ≥ 0,
// computed as the digit count of num×5^m less one less m.
func bigFloorLog10(num *big.Int, m int) int {
	x := new(big.Int).Exp(big.NewInt(5), big.NewInt(int64(m)), nil)
	return len(x.Mul(x, num).String()) - 1 - m
}

// TestShortestTableMatchesBig rebuilds the power-of-ten table and
// checks the fixed-point logarithms the encoder indexes it with, all in
// exact math/big arithmetic, over every exponent a float64 needs.
func TestShortestTableMatchesBig(t *testing.T) {
	for e := -1074; e <= 1074; e++ {
		var two, threeQuarters int
		if e >= 0 {
			two = bigFloorLog10(new(big.Int).Lsh(big.NewInt(1), uint(e)), 0)
		} else {
			two = bigFloorLog10(big.NewInt(1), -e)
		}
		if e >= 2 {
			threeQuarters = bigFloorLog10(new(big.Int).Lsh(big.NewInt(3), uint(e-2)), 0)
		} else {
			threeQuarters = bigFloorLog10(big.NewInt(3), 2-e)
		}
		if got := flog10pow2(e); got != two {
			t.Fatalf("flog10pow2(%d) = %d, want %d", e, got, two)
		}
		if got := flog10ThreeQuartersPow2(e); got != threeQuarters {
			t.Fatalf("flog10ThreeQuartersPow2(%d) = %d, want %d", e, got, threeQuarters)
		}
	}
	for e := -pow10gMaxK; e <= -pow10gMinK; e++ {
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(e, -e))), nil)
		want := p.BitLen() - 1 // ⌊log₂ 10^e⌋ for e ≥ 0
		if e < 0 {
			want = -p.BitLen() // 10^|e| is no power of two for e ≠ 0
		}
		if got := flog2pow10(e); got != want {
			t.Fatalf("flog2pow10(%d) = %d, want %d", e, got, want)
		}
	}

	want := genPow10g()
	for i, g := range want {
		if pow10g[i] != g {
			t.Fatalf("pow10g entry for k=%d is %#x, math/big gives %#x", i+pow10gMinK, pow10g[i], g)
		}
	}
	committed, err := os.ReadFile("float_table.go")
	if err != nil {
		t.Fatal(err)
	}
	if src := pow10gSource(want); !bytes.Equal(committed, src) {
		t.Errorf("float_table.go is not pow10gSource's output; write that output to the file")
	}
}

// genPow10g computes the table: for k = pow10gMinK … pow10gMaxK, the
// entry {g1, g0} of g = ⌊10^−k/2^r⌋ + 1, with r = ⌊log₂ 10^−k⌋ − 125
// so that 2¹²⁵ < g ≤ 2¹²⁶ − 1, split as g1 = ⌊g/2⁶³⌋ and g0 = g mod 2⁶³.
func genPow10g() [][2]uint64 {
	var out [][2]uint64
	mask63 := new(big.Int).SetUint64(1<<63 - 1)
	for k := pow10gMinK; k <= pow10gMaxK; k++ {
		num, den := big.NewInt(1), big.NewInt(1)
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(k, -k))), nil)
		if k < 0 {
			num = p
		} else {
			den = p
		}
		if r := flog2pow10(-k) - 125; r < 0 {
			num.Lsh(num, uint(-r))
		} else {
			den.Lsh(den, uint(r))
		}
		g := num.Quo(num, den)
		g.Add(g, big.NewInt(1))
		if g.BitLen() != 126 {
			panic(fmt.Sprintf("g for k=%d has %d bits, want 126", k, g.BitLen()))
		}
		g0 := new(big.Int).And(g, mask63).Uint64()
		out = append(out, [2]uint64{g.Rsh(g, 63).Uint64(), g0})
	}
	return out
}

// pow10gSource renders the table as the Go source of float_table.go.
func pow10gSource(g [][2]uint64) []byte {
	var b bytes.Buffer
	b.WriteString("// Code generated by pow10gSource in float_test.go; DO NOT EDIT.\n\n")
	b.WriteString("package stream\n\n")
	b.WriteString("// pow10g[k-pow10gMinK] is {g1, g0} for g = floor(10^-k / 2^r) + 1,\n")
	b.WriteString("// r chosen so that g has 126 bits: g1 = g >> 63, g0 = g mod 2^63.\n")
	b.WriteString("var pow10g = [pow10gMaxK - pow10gMinK + 1][2]uint64{\n")
	for i, e := range g {
		fmt.Fprintf(&b, "{%#016x, %#016x}, // %d\n", e[0], e[1], i+pow10gMinK)
	}
	b.WriteString("}\n")
	src, err := format.Source(b.Bytes())
	if err != nil {
		panic(err)
	}
	return src
}

// BenchmarkAppendFloat is the per-float cost of the encoder against
// strconv's on the iteration times and fractions of gridRows, the two
// floats every row encodes afresh. The values are cut to a power-of-two
// count so that the loop picks one with a mask, not a division.
func BenchmarkAppendFloat(b *testing.B) {
	var vs []float64
	for _, r := range gridRows() {
		vs = append(vs, float64(r.IterTime), r.CommFrac)
	}
	vs = vs[:1<<(bits.Len(uint(len(vs)))-1)]
	mask := len(vs) - 1
	for _, enc := range []struct {
		name string
		fn   func([]byte, float64) []byte
	}{
		{"appendFloat", appendFloat},
		{"strconv", func(b []byte, v float64) []byte { return strconv.AppendFloat(b, v, 'g', -1, 64) }},
	} {
		b.Run(enc.name, func(b *testing.B) {
			buf := make([]byte, 0, 32)
			for i := 0; i < b.N; i++ {
				buf = enc.fn(buf[:0], vs[i&mask])
			}
		})
	}
}
