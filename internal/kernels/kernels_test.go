package kernels

import (
	"math"
	"testing"
	"testing/quick"

	"twocs/internal/hw"
	"twocs/internal/tensor"
	"twocs/internal/units"
)

func newCalc(t *testing.T, opts ...Option) *Calculator {
	t.Helper()
	c, err := NewCalculator(hw.MI210, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewCalculatorValidation(t *testing.T) {
	if _, err := NewCalculator(hw.DeviceSpec{}); err == nil {
		t.Error("invalid device accepted")
	}
}

func TestGEMMInvalid(t *testing.T) {
	c := newCalc(t)
	if _, err := c.GEMM(tensor.MatMul{M: 0, N: 1, K: 1}); err == nil {
		t.Error("invalid GEMM accepted")
	}
}

func TestLargeGEMMIsComputeBoundAndEfficient(t *testing.T) {
	c := newCalc(t)
	// A big square FP16 GEMM should run compute-bound at high
	// utilization — the paper assumes >85% peak on key GEMMs (GShard).
	tm, err := c.GEMM(tensor.MatMul{M: 8192, N: 8192, K: 8192, DT: tensor.FP16})
	if err != nil {
		t.Fatal(err)
	}
	if tm.MemoryBound {
		t.Error("large square GEMM should be compute-bound")
	}
	if tm.Utilization < 0.80 {
		t.Errorf("utilization = %v, want >= 0.80", tm.Utilization)
	}
	if tm.Utilization > 1 {
		t.Errorf("utilization %v exceeds peak", tm.Utilization)
	}
}

func TestSmallGEMMHasLowUtilization(t *testing.T) {
	c := newCalc(t)
	tm, err := c.GEMM(tensor.MatMul{M: 64, N: 64, K: 64, DT: tensor.FP16})
	if err != nil {
		t.Fatal(err)
	}
	if tm.Utilization > 0.3 {
		t.Errorf("tiny GEMM utilization = %v, want well below peak", tm.Utilization)
	}
}

func TestGEMMMonotoneInK(t *testing.T) {
	c := newCalc(t)
	prev := units.Seconds(0)
	for _, k := range []int{512, 1024, 2048, 4096, 8192} {
		tt, err := c.GEMMTime(tensor.MatMul{M: 2048, N: 2048, K: k, DT: tensor.FP16})
		if err != nil {
			t.Fatal(err)
		}
		if tt <= prev {
			t.Errorf("GEMM time not increasing at K=%d: %v <= %v", k, tt, prev)
		}
		prev = tt
	}
}

func TestGEMMKernelSelectionPrefersLargeTilesForLargeGEMMs(t *testing.T) {
	c := newCalc(t)
	big, err := c.GEMM(tensor.MatMul{M: 16384, N: 16384, K: 4096, DT: tensor.FP16})
	if err != nil {
		t.Fatal(err)
	}
	small, err := c.GEMM(tensor.MatMul{M: 48, N: 48, K: 4096, DT: tensor.FP16})
	if err != nil {
		t.Fatal(err)
	}
	if big.Kernel.M*big.Kernel.N <= small.Kernel.M*small.Kernel.N {
		t.Errorf("kernel selection: big GEMM chose %+v, small chose %+v",
			big.Kernel, small.Kernel)
	}
}

func TestGEMMApproachesQuadraticScalingInH(t *testing.T) {
	// The FC GEMM of a Transformer has FLOPs ∝ H². At large sizes the
	// modelled time should scale close to quadratically (Fig 15a), but
	// not exactly — kernel selection and quantization perturb it.
	c := newCalc(t)
	gemm := func(h int) units.Seconds {
		tt, err := c.GEMMTime(tensor.MatMul{M: 4 * h, N: 2048, K: h, DT: tensor.FP16})
		if err != nil {
			t.Fatal(err)
		}
		return tt
	}
	r := float64(gemm(16384)) / float64(gemm(8192))
	if r < 3.3 || r > 4.7 {
		t.Errorf("doubling H scaled time by %v, want ~4 (quadratic)", r)
	}
}

func TestGEMMFP16FasterThanFP32(t *testing.T) {
	c := newCalc(t)
	m := tensor.MatMul{M: 4096, N: 4096, K: 4096}
	m16, m32 := m, m
	m16.DT, m32.DT = tensor.FP16, tensor.FP32
	t16, err := c.GEMMTime(m16)
	if err != nil {
		t.Fatal(err)
	}
	t32, err := c.GEMMTime(m32)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(t32) / float64(t16)
	if ratio < 3 || ratio > 5 {
		t.Errorf("FP32/FP16 ratio = %v, want ~4 on MI210", ratio)
	}
}

func TestWaveQuantizationAblation(t *testing.T) {
	// A grid that is one tile over a wave boundary suffers from
	// quantization; disabling it must speed the GEMM up.
	cq := newCalc(t)
	cnq := newCalc(t, WithoutWaveQuantization())
	// 105 tiles of 128x128 over 104 CUs → 2 waves, ~50% wave util.
	m := tensor.MatMul{M: 128 * 105, N: 128, K: 4096, DT: tensor.FP16}
	tq, err := cq.GEMMTime(m)
	if err != nil {
		t.Fatal(err)
	}
	tnq, err := cnq.GEMMTime(m)
	if err != nil {
		t.Fatal(err)
	}
	if tnq >= tq {
		t.Errorf("disabling wave quantization should help: %v vs %v", tnq, tq)
	}
}

func TestLayerNormLinearScaling(t *testing.T) {
	c := newCalc(t)
	t1, err := c.LayerNorm(4096, 4096, tensor.FP16)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := c.LayerNorm(8192, 4096, tensor.FP16)
	if err != nil {
		t.Fatal(err)
	}
	r := float64(t2) / float64(t1)
	if r < 1.8 || r > 2.1 {
		t.Errorf("doubling rows scaled LayerNorm by %v, want ~2", r)
	}
}

func TestLayerNormIsMemoryBoundCheap(t *testing.T) {
	c := newCalc(t)
	ln, err := c.LayerNorm(2048, 1024, tensor.FP16)
	if err != nil {
		t.Fatal(err)
	}
	g, err := c.GEMMTime(tensor.MatMul{M: 2048, N: 1024, K: 1024, DT: tensor.FP16})
	if err != nil {
		t.Fatal(err)
	}
	if ln > 10*g {
		t.Errorf("LayerNorm %v should be same order or cheaper than its GEMM %v", ln, g)
	}
}

func TestElementwiseAndSoftmax(t *testing.T) {
	c := newCalc(t)
	ew, err := c.Elementwise(1<<20, 2, tensor.FP16)
	if err != nil {
		t.Fatal(err)
	}
	if ew <= 0 {
		t.Error("elementwise time must be positive")
	}
	sm, err := c.Softmax(4096, 4096, tensor.FP16)
	if err != nil {
		t.Fatal(err)
	}
	if sm <= 0 {
		t.Error("softmax time must be positive")
	}
	if _, err := c.Elementwise(0, 1, tensor.FP16); err == nil {
		t.Error("zero elems accepted")
	}
	if _, err := c.Softmax(-1, 4, tensor.FP16); err == nil {
		t.Error("negative rows accepted")
	}
}

func TestSmallKernelsDominatedByLaunchOverhead(t *testing.T) {
	c := newCalc(t)
	tiny, err := c.Elementwise(16, 1, tensor.FP16)
	if err != nil {
		t.Fatal(err)
	}
	if tiny < hw.MI210.KernelLaunch {
		t.Errorf("tiny kernel %v cannot beat launch overhead %v", tiny, hw.MI210.KernelLaunch)
	}
}

func TestSaturationRamp(t *testing.T) {
	r := hw.SaturationRamp{Half: 100}
	if got := r.Eval(100); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Eval(Half) = %v, want 0.5", got)
	}
	if r.Eval(0) != 0 {
		t.Error("Eval(0) != 0")
	}
	if r.Eval(1e12) < 0.999 {
		t.Error("ramp must saturate toward 1")
	}
	off := hw.SaturationRamp{}
	if !off.Disabled() || off.Eval(1) != 1 {
		t.Error("zero ramp must be disabled")
	}
}

// Property: GEMM time is always at least the ideal peak-rate time and at
// most a generous constant above it; utilization is in (0,1].
func TestGEMMBoundsProperty(t *testing.T) {
	c := newCalc(t)
	f := func(a, b, k uint16) bool {
		m := tensor.MatMul{
			M:  int(a)%4096 + 1,
			N:  int(b)%4096 + 1,
			K:  int(k)%4096 + 1,
			DT: tensor.FP16,
		}
		tm, err := c.GEMM(m)
		if err != nil {
			return false
		}
		ideal := m.FLOPs().Div(hw.MI210.PeakFor(tensor.FP16))
		return tm.Total() >= ideal && tm.Utilization > 0 && tm.Utilization <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: memory-bound kernel times are monotone in traffic.
func TestMemBoundMonotoneProperty(t *testing.T) {
	c := newCalc(t)
	f := func(e uint32) bool {
		elems := float64(e%1_000_000) + 1
		t1, err1 := c.Elementwise(elems, 1, tensor.FP16)
		t2, err2 := c.Elementwise(elems*2, 1, tensor.FP16)
		return err1 == nil && err2 == nil && t2 > t1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
