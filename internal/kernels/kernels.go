// Package kernels provides analytical timing models for the GPU kernels a
// Transformer training iteration executes: tiled GEMMs, LayerNorm,
// element-wise epilogues and softmax. A Calculator bound to a device plays
// the role the rocBLAS/PyTorch kernels played on the paper's MI210
// testbed: it is the "ground truth" that profiling observes and that the
// operator-level models are validated against.
//
// The models intentionally include the non-idealities the paper calls out
// (§4.3.8): per-size kernel (tile) selection, wave quantization across
// compute units, padding waste, and bandwidth-utilization ramps. These are
// what make naive linear/quadratic projections err by the ~7-15% the paper
// reports, so they must exist for the reproduction to be honest.
package kernels

import (
	"fmt"
	"math"

	"twocs/internal/hw"
	"twocs/internal/tensor"
	"twocs/internal/units"
)

// Tile is one entry in the GEMM kernel library: an output tile size and
// the peak-FLOPS fraction that kernel achieves when fully occupied.
// Larger tiles amortize more instruction overhead and reach higher
// efficiency but waste more work on ragged edges.
type Tile struct {
	M, N int
	Eff  float64
}

// DefaultTiles is a rocBLAS-like kernel library. Efficiencies are typical
// of well-tuned HIP/CUDA GEMM kernels on matrix pipelines.
func DefaultTiles() []Tile {
	return []Tile{
		{256, 128, 0.92},
		{128, 128, 0.88},
		{128, 64, 0.82},
		{64, 64, 0.74},
		{64, 32, 0.64},
		{32, 32, 0.52},
		{16, 16, 0.33},
	}
}

// Calculator computes kernel runtimes on one device.
type Calculator struct {
	dev   hw.DeviceSpec
	tiles []Tile

	// cus is the number of compute units the tile grid is scheduled
	// over; wave quantization rounds the tile count up to a multiple.
	cus int

	// cacheBlock is the LDS/L2 macro-tile size as a multiple of the
	// register tile, governing off-chip operand reuse.
	cacheBlock int

	// memRamp models bandwidth under-utilization for small memory-bound
	// kernels.
	memRamp hw.SaturationRamp

	// waveQuantization can be disabled for ablation studies.
	waveQuantization bool
}

// Option configures a Calculator.
type Option func(*Calculator)

// WithoutWaveQuantization disables wave quantization (ablation).
func WithoutWaveQuantization() Option {
	return func(c *Calculator) { c.waveQuantization = false }
}

// NewCalculator builds a Calculator with MI210-like defaults: 104 compute
// units and a 2 MiB bandwidth-ramp half point.
func NewCalculator(dev hw.DeviceSpec, opts ...Option) (*Calculator, error) {
	if err := dev.Validate(); err != nil {
		return nil, err
	}
	c := &Calculator{
		dev:              dev,
		tiles:            DefaultTiles(),
		cus:              104,
		cacheBlock:       4,
		memRamp:          hw.SaturationRamp{Half: 2 * units.MiB},
		waveQuantization: true,
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// Device returns the device the calculator is bound to.
func (c *Calculator) Device() hw.DeviceSpec { return c.dev }

// GEMMTiming is the detailed result of timing one GEMM.
type GEMMTiming struct {
	Kernel      Tile
	ComputeTime units.Seconds
	MemoryTime  units.Seconds
	Launch      units.Seconds
	// Utilization is achieved FLOPS divided by device peak.
	Utilization float64
	// MemoryBound reports whether the memory side dominated.
	MemoryBound bool
}

// Total returns the modelled wall time of the GEMM.
func (t GEMMTiming) Total() units.Seconds {
	d := t.ComputeTime
	if t.MemoryTime > d {
		d = t.MemoryTime
	}
	return d + t.Launch
}

// GEMM times a matrix multiply by evaluating every kernel in the library
// and choosing the fastest — the same per-size kernel selection a tuned
// BLAS performs, and the reason measured GEMM time is not a smooth
// function of its dimensions.
func (c *Calculator) GEMM(m tensor.MatMul) (GEMMTiming, error) {
	if !m.Valid() {
		return GEMMTiming{}, fmt.Errorf("kernels: invalid GEMM %v", m)
	}
	peak := c.dev.PeakFor(m.DT)
	var best GEMMTiming
	bestTotal := units.Seconds(math.Inf(1))
	for _, tile := range c.tiles {
		t := c.timeWithTile(m, tile, peak)
		if tot := t.Total(); tot < bestTotal {
			bestTotal = tot
			best = t
		}
	}
	return best, nil
}

// GEMMTime is the convenience form returning only the wall time.
func (c *Calculator) GEMMTime(m tensor.MatMul) (units.Seconds, error) {
	t, err := c.GEMM(m)
	if err != nil {
		return 0, err
	}
	return t.Total(), nil
}

func (c *Calculator) timeWithTile(m tensor.MatMul, tile Tile, peak units.FLOPSRate) GEMMTiming {
	tilesM := ceilDiv(m.M, tile.M)
	tilesN := ceilDiv(m.N, tile.N)
	totalTiles := float64(tilesM) * float64(tilesN)

	// Padding waste: ragged edges execute full tiles.
	paddedFLOPs := 2 * float64(tilesM*tile.M) * float64(tilesN*tile.N) * float64(m.K)

	// Wave quantization: the grid executes in waves of `cus` tiles; a
	// final partial wave occupies the machine as long as a full one.
	waveUtil := 1.0
	if c.waveQuantization {
		waves := math.Ceil(totalTiles / float64(c.cus))
		waveUtil = totalTiles / (waves * float64(c.cus))
	}

	effRate := float64(peak) * tile.Eff * waveUtil
	computeTime := units.Seconds(paddedFLOPs / effRate)

	// Off-chip traffic of a tiled GEMM: with cache/LDS blocking the
	// effective reuse block is a multiple of the register tile, so each
	// element of A is read once per column macro-tile pass and each of
	// B once per row macro-tile pass, plus one write of C:
	// MNK(1/(cb·tileM) + 1/(cb·tileN))·s + MN·s.
	elem := float64(m.DT.Size())
	bm := float64(c.cacheBlock * tile.M)
	bn := float64(c.cacheBlock * tile.N)
	traffic := float64(m.M) * float64(m.N) * float64(m.K) * (1/bm + 1/bn) * elem
	traffic += float64(m.M) * float64(m.N) * elem
	memEff := c.memRamp.Eval(traffic)
	memTime := units.Seconds(traffic / (float64(c.dev.MemBandwidth) * memEff))

	t := GEMMTiming{
		Kernel:      tile,
		ComputeTime: computeTime,
		MemoryTime:  memTime,
		Launch:      c.dev.KernelLaunch,
		MemoryBound: memTime > computeTime,
	}
	ideal := float64(m.FLOPs()) / float64(peak)
	t.Utilization = ideal / float64(t.Total())
	return t
}

// memBoundTime models a bandwidth-bound kernel moving `traffic` bytes.
func (c *Calculator) memBoundTime(traffic float64) units.Seconds {
	eff := c.memRamp.Eval(traffic)
	return units.Seconds(traffic/(float64(c.dev.MemBandwidth)*eff)) + c.dev.KernelLaunch
}

// LayerNorm times a layer normalization over rows×width elements:
// bandwidth-bound, one read and one write of the activation plus a
// second read for the statistics pass.
func (c *Calculator) LayerNorm(rows, width int, dt tensor.DType) (units.Seconds, error) {
	if rows <= 0 || width <= 0 {
		return 0, fmt.Errorf("kernels: invalid LayerNorm dims %dx%d", rows, width)
	}
	traffic := 3 * float64(rows) * float64(width) * float64(dt.Size())
	return c.memBoundTime(traffic), nil
}

// Elementwise times a pointwise kernel over `elems` elements reading
// `operands` inputs and writing one output (e.g. residual add: operands=2).
func (c *Calculator) Elementwise(elems float64, operands int, dt tensor.DType) (units.Seconds, error) {
	if elems <= 0 || operands < 1 {
		return 0, fmt.Errorf("kernels: invalid elementwise elems=%v operands=%d", elems, operands)
	}
	traffic := (float64(operands) + 1) * elems * float64(dt.Size())
	return c.memBoundTime(traffic), nil
}

// Softmax times a row softmax over rows×width: three passes (max, exp-sum,
// normalize) of read/write traffic.
func (c *Calculator) Softmax(rows, width int, dt tensor.DType) (units.Seconds, error) {
	if rows <= 0 || width <= 0 {
		return 0, fmt.Errorf("kernels: invalid softmax dims %dx%d", rows, width)
	}
	traffic := 4 * float64(rows) * float64(width) * float64(dt.Size())
	return c.memBoundTime(traffic), nil
}

// FusedAttention times a FlashAttention-style kernel computing the whole
// attention core (QKᵀ, softmax, PV) for batchHeads independent heads over
// seq×headDim tiles, keeping the seq×seq score matrix on-chip. Compared
// to the unfused three-kernel sequence it eliminates the quadratic
// score-matrix HBM traffic at a modest compute-efficiency cost — the kind
// of algorithmic evolution the paper's §6.4 anticipates folding in.
func (c *Calculator) FusedAttention(batchHeads, seq, headDim int, dt tensor.DType) (units.Seconds, error) {
	if batchHeads <= 0 || seq <= 0 || headDim <= 0 {
		return 0, fmt.Errorf("kernels: invalid fused attention dims %dx%dx%d", batchHeads, seq, headDim)
	}
	peak := c.dev.PeakFor(dt)
	// Two GEMMs' worth of math: QKᵀ and PV, 2·2·seq²·headDim each head.
	flops := 4 * float64(batchHeads) * float64(seq) * float64(seq) * float64(headDim)
	// Fused kernels trade some register/LDS pressure for fusion.
	const fusedEff = 0.70
	computeTime := flops / (float64(peak) * fusedEff)
	// Off-chip traffic: Q, K, V read once, O written once; the score
	// matrix never leaves the chip.
	elem := float64(dt.Size())
	traffic := 4 * float64(batchHeads) * float64(seq) * float64(headDim) * elem
	memEff := c.memRamp.Eval(traffic)
	memTime := traffic / (float64(c.dev.MemBandwidth) * memEff)
	t := computeTime
	if memTime > t {
		t = memTime
	}
	return units.Seconds(t) + c.dev.KernelLaunch, nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
