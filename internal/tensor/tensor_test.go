package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"twocs/internal/units"
)

func TestDTypeSizes(t *testing.T) {
	tests := []struct {
		d    DType
		size units.Bytes
		bits int
		name string
	}{
		{FP64, 8, 64, "FP64"},
		{FP32, 4, 32, "FP32"},
		{FP16, 2, 16, "FP16"},
		{BF16, 2, 16, "BF16"},
		{FP8, 1, 8, "FP8"},
	}
	for _, tt := range tests {
		if tt.d.Size() != tt.size {
			t.Errorf("%v.Size() = %v, want %v", tt.d, tt.d.Size(), tt.size)
		}
		if tt.d.Bits() != tt.bits {
			t.Errorf("%v.Bits() = %v, want %v", tt.d, tt.d.Bits(), tt.bits)
		}
		if tt.d.String() != tt.name {
			t.Errorf("String() = %q, want %q", tt.d.String(), tt.name)
		}
	}
	if DType(99).Size() != 4 {
		t.Error("unknown dtype should default to 4 bytes")
	}
}

func TestShape(t *testing.T) {
	s := Shape{4, 512, 1024}
	if !s.Valid() {
		t.Error("shape should be valid")
	}
	if got := s.Elems(); got != 4*512*1024 {
		t.Errorf("Elems = %v", got)
	}
	if got := s.Bytes(FP16); got != units.Bytes(4*512*1024*2) {
		t.Errorf("Bytes = %v", got)
	}
	if (Shape{}).Valid() || (Shape{0}).Valid() || (Shape{-1, 2}).Valid() {
		t.Error("invalid shapes accepted")
	}
	if (Shape{}).Elems() != 0 {
		t.Error("empty shape Elems != 0")
	}
	if got := s.String(); got != "[4 512 1024]" {
		t.Errorf("String = %q", got)
	}
}

func TestMatMulCounts(t *testing.T) {
	m := MatMul{M: 8, N: 16, K: 32, DT: FP32}
	if !m.Valid() {
		t.Error("valid matmul reported invalid")
	}
	if got := m.FLOPs(); got != units.FLOPs(2*8*16*32) {
		t.Errorf("FLOPs = %v", got)
	}
	if m.ABytes() != units.Bytes(8*32*4) || m.BBytes() != units.Bytes(32*16*4) || m.CBytes() != units.Bytes(8*16*4) {
		t.Error("operand byte sizes wrong")
	}
	if m.IOBytes() != m.ABytes()+m.BBytes()+m.CBytes() {
		t.Error("IOBytes must be sum of operands")
	}
	if (MatMul{M: 0, N: 1, K: 1}).Valid() {
		t.Error("zero dim accepted")
	}
}

func TestArithmeticIntensityGrowsWithSquareSize(t *testing.T) {
	small := MatMul{M: 64, N: 64, K: 64, DT: FP16}
	large := MatMul{M: 4096, N: 4096, K: 4096, DT: FP16}
	if small.ArithmeticIntensity() >= large.ArithmeticIntensity() {
		t.Errorf("intensity should grow with size: %v vs %v",
			small.ArithmeticIntensity(), large.ArithmeticIntensity())
	}
}

// The reference GEMM's counted operations must equal the 2*M*N*K formula —
// this pins the analytical FLOP model to an actual computation.
func TestRefGEMMMatchesFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		m, n, k := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		a := make([]float64, m*k)
		b := make([]float64, k*n)
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		var ctr OpCounter
		c, err := RefGEMM(m, n, k, a, b, &ctr)
		if err != nil {
			t.Fatal(err)
		}
		want := float64(MatMul{M: m, N: n, K: k}.FLOPs())
		if ctr.Total() != want {
			t.Fatalf("counted %v ops, formula says %v (m=%d n=%d k=%d)", ctr.Total(), want, m, n, k)
		}
		if len(c) != m*n {
			t.Fatalf("output len %d, want %d", len(c), m*n)
		}
	}
}

func TestRefGEMMNumericCorrectness(t *testing.T) {
	// [1 2; 3 4] × [5 6; 7 8] = [19 22; 43 50]
	var ctr OpCounter
	c, err := RefGEMM(2, 2, 2, []float64{1, 2, 3, 4}, []float64{5, 6, 7, 8}, &ctr)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{19, 22, 43, 50}
	for i := range want {
		if c[i] != want[i] {
			t.Errorf("c[%d] = %v, want %v", i, c[i], want[i])
		}
	}
}

func TestRefGEMMErrors(t *testing.T) {
	var ctr OpCounter
	if _, err := RefGEMM(0, 1, 1, nil, nil, &ctr); err == nil {
		t.Error("expected dim error")
	}
	if _, err := RefGEMM(2, 2, 2, []float64{1}, []float64{1, 2, 3, 4}, &ctr); err == nil {
		t.Error("expected size error")
	}
}

func TestRefLayerNormNormalizes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rows, width := 4, 64
	x := make([]float64, rows*width)
	for i := range x {
		x[i] = rng.NormFloat64()*3 + 5
	}
	var ctr OpCounter
	out, err := RefLayerNorm(rows, width, x, &ctr)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rows; r++ {
		mean, varsum := 0.0, 0.0
		for i := 0; i < width; i++ {
			mean += out[r*width+i]
		}
		mean /= float64(width)
		for i := 0; i < width; i++ {
			d := out[r*width+i] - mean
			varsum += d * d
		}
		varsum /= float64(width)
		if math.Abs(mean) > 1e-9 {
			t.Errorf("row %d mean = %v, want ~0", r, mean)
		}
		if math.Abs(varsum-1) > 1e-3 {
			t.Errorf("row %d variance = %v, want ~1", r, varsum)
		}
	}
}

// Property: LayerNorm's counted ops scale linearly in rows and in width,
// the scaling law the operator model assumes.
func TestRefLayerNormLinearScaling(t *testing.T) {
	count := func(rows, width int) float64 {
		x := make([]float64, rows*width)
		for i := range x {
			x[i] = float64(i%7) + 1
		}
		var ctr OpCounter
		if _, err := RefLayerNorm(rows, width, x, &ctr); err != nil {
			t.Fatal(err)
		}
		return ctr.Total()
	}
	base := count(2, 32)
	if got := count(4, 32); got != 2*base {
		t.Errorf("doubling rows: %v, want %v", got, 2*base)
	}
	// Width scaling is linear up to a constant per-row term; check the
	// dominant term by large widths.
	w1, w2 := count(1, 1000), count(1, 2000)
	if ratio := w2 / w1; math.Abs(ratio-2) > 0.02 {
		t.Errorf("doubling width gave ratio %v, want ~2", ratio)
	}
}

func TestRefLayerNormErrors(t *testing.T) {
	var ctr OpCounter
	if _, err := RefLayerNorm(0, 4, nil, &ctr); err == nil {
		t.Error("expected dim error")
	}
	if _, err := RefLayerNorm(2, 2, []float64{1}, &ctr); err == nil {
		t.Error("expected size error")
	}
}

// Property: MatMul FLOPs are symmetric under exchanging M and N, and
// strictly monotone in each dimension.
func TestMatMulFLOPsProperties(t *testing.T) {
	f := func(m, n, k uint8) bool {
		mm := MatMul{M: int(m)%64 + 1, N: int(n)%64 + 1, K: int(k)%64 + 1}
		swapped := MatMul{M: mm.N, N: mm.M, K: mm.K}
		bigger := MatMul{M: mm.M + 1, N: mm.N, K: mm.K}
		return mm.FLOPs() == swapped.FLOPs() && bigger.FLOPs() > mm.FLOPs()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Bits returns the element width in bits.
func (d DType) Bits() int { return int(d.Size()) * 8 }

// ABytes, BBytes and CBytes return the operand and output footprints.
func (m MatMul) ABytes() units.Bytes { return Shape{m.M, m.K}.Bytes(m.DT) }

// BBytes returns the B-operand footprint.
func (m MatMul) BBytes() units.Bytes { return Shape{m.K, m.N}.Bytes(m.DT) }

// CBytes returns the output footprint — the quantity the serialized
// all-reduces of tensor parallelism move (paper Eq 5).
func (m MatMul) CBytes() units.Bytes { return Shape{m.M, m.N}.Bytes(m.DT) }

// IOBytes returns the total off-chip traffic assuming each operand is read
// once and the output written once (the minimum, reuse-friendly schedule).
func (m MatMul) IOBytes() units.Bytes { return m.ABytes() + m.BBytes() + m.CBytes() }

// ArithmeticIntensity returns FLOPs per byte of minimum I/O, the roofline
// x-coordinate deciding whether the GEMM is compute- or memory-bound.
func (m MatMul) ArithmeticIntensity() float64 {
	io := float64(m.IOBytes())
	if io == 0 {
		return 0
	}
	return float64(m.FLOPs()) / io
}

// Shape is a dense tensor shape. Dimension order is row-major and carries
// no semantics beyond sizing.
type Shape []int

// Valid reports whether every dimension is positive.
func (s Shape) Valid() bool {
	if len(s) == 0 {
		return false
	}
	for _, d := range s {
		if d <= 0 {
			return false
		}
	}
	return true
}

// Elems returns the number of elements, as float64 to permit shapes whose
// product exceeds int64 in extreme sweeps.
func (s Shape) Elems() float64 {
	if len(s) == 0 {
		return 0
	}
	n := 1.0
	for _, d := range s {
		n *= float64(d)
	}
	return n
}

// Bytes returns the storage footprint of the shape in format d.
func (s Shape) Bytes(d DType) units.Bytes {
	return units.Bytes(s.Elems() * float64(d.Size()))
}

// String renders e.g. "[4096 512 1024]".
func (s Shape) String() string { return fmt.Sprint([]int(s)) }
