package hw

import (
	"fmt"
	"sort"

	"twocs/internal/stats"
	"twocs/internal/tensor"
	"twocs/internal/units"
)

// This file holds the device catalog and the memory-capacity trend data
// behind the paper's Figure 6 and the TP-degree estimator (§4.3.2).

// Catalog entries, modelled on public datasheets. Peak matrix/tensor-core
// throughputs are used where the device has them, since Transformer GEMMs
// run on those pipelines.
var (
	// MI210 is the paper's testbed accelerator (§4.3.1): 64 GB HBM2e,
	// 1.6 TB/s, FP16 matrix peak ≈ 181 TFLOP/s ≈ 4× FP32 matrix peak.
	MI210 = DeviceSpec{
		Name: "MI210", Year: 2022,
		Peak: map[tensor.DType]units.FLOPSRate{
			tensor.FP64: units.TFLOPS(22.6),
			tensor.FP32: units.TFLOPS(45.3),
			tensor.FP16: units.TFLOPS(181),
			tensor.BF16: units.TFLOPS(181),
		},
		MemBandwidth: units.GBps(1600),
		MemCapacity:  units.GiBCapacity(64),
		KernelLaunch: 5 * units.Microsecond,
	}

	// MI50 and MI100 anchor the 2018→2020 AMD flop-vs-bw data point the
	// paper cites (~7× compute vs ~1.7× network).
	MI50 = DeviceSpec{
		Name: "MI50", Year: 2018,
		Peak: map[tensor.DType]units.FLOPSRate{
			tensor.FP64: units.TFLOPS(6.6),
			tensor.FP32: units.TFLOPS(13.3),
			tensor.FP16: units.TFLOPS(26.5),
		},
		MemBandwidth: units.GBps(1024),
		MemCapacity:  units.GiBCapacity(32),
		KernelLaunch: 6 * units.Microsecond,
	}

	// MI100 is AMD's 2020 part: FP16 matrix 184.6 TFLOP/s.
	MI100 = DeviceSpec{
		Name: "MI100", Year: 2020,
		Peak: map[tensor.DType]units.FLOPSRate{
			tensor.FP64: units.TFLOPS(11.5),
			tensor.FP32: units.TFLOPS(46.1),
			tensor.FP16: units.TFLOPS(184.6),
			tensor.BF16: units.TFLOPS(92.3),
		},
		MemBandwidth: units.GBps(1228),
		MemCapacity:  units.GiBCapacity(32),
		KernelLaunch: 5 * units.Microsecond,
	}

	// V100 and A100 anchor the 2018→2020 NVIDIA data point the paper
	// cites (~5× compute vs ~2× network).
	V100 = DeviceSpec{
		Name: "V100", Year: 2018,
		Peak: map[tensor.DType]units.FLOPSRate{
			tensor.FP64: units.TFLOPS(7.8),
			tensor.FP32: units.TFLOPS(15.7),
			tensor.FP16: units.TFLOPS(125),
		},
		MemBandwidth: units.GBps(900),
		MemCapacity:  units.GiBCapacity(32),
		KernelLaunch: 5 * units.Microsecond,
	}

	A100 = DeviceSpec{
		Name: "A100", Year: 2020,
		Peak: map[tensor.DType]units.FLOPSRate{
			tensor.FP64: units.TFLOPS(19.5),
			tensor.FP32: units.TFLOPS(19.5),
			tensor.FP16: units.TFLOPS(312),
			tensor.BF16: units.TFLOPS(312),
		},
		MemBandwidth: units.GBps(2039),
		MemCapacity:  units.GiBCapacity(80),
		KernelLaunch: 4 * units.Microsecond,
	}
)

// Catalog returns all built-in devices, sorted by year then name.
func Catalog() []DeviceSpec {
	ds := []DeviceSpec{MI50, V100, MI100, A100, MI210}
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].Year != ds[j].Year {
			return ds[i].Year < ds[j].Year
		}
		return ds[i].Name < ds[j].Name
	})
	return ds
}

// MI210Node is the paper's evaluation system (§4.3.1, Fig 9a): four fully
// connected MI210s, 100 GB/s bidirectional links forming rings with a peak
// ring-all-reduce bus bandwidth of 150 GB/s.
func MI210Node() Node {
	return Node{
		Device:        MI210,
		Count:         4,
		Link:          Link{Bandwidth: units.GBps(100), Latency: 2 * units.Microsecond},
		RingBandwidth: units.GBps(150),
	}
}

// MI210Cluster wraps MI210Node into a cluster of numNodes nodes.
// interNodeBWFraction expresses inter-node bandwidth as a fraction of the
// intra-node ring bandwidth; the paper's §4.3.7 discussion uses ~1/8.
func MI210Cluster(numNodes int, interNodeBWFraction float64) Cluster {
	n := MI210Node()
	return Cluster{
		Node:     n,
		NumNodes: numNodes,
		InterNode: Link{
			Bandwidth: units.ByteRate(float64(n.EffectiveRingBW()) * interNodeBWFraction),
			Latency:   5 * units.Microsecond,
		},
	}
}

// CapacityPoint is one (year, per-device memory capacity) observation used
// by the Figure 6 trend line.
type CapacityPoint struct {
	Year     int
	Capacity units.Bytes
	Device   string
}

// CapacityTrend returns the historical per-device HBM capacities of
// flagship training accelerators, the data behind the paper's "device
// memory capacity scales linearly" observation (Fig 6).
func CapacityTrend() []CapacityPoint {
	return []CapacityPoint{
		{2016, units.GiBCapacity(16), "P100"},
		{2018, units.GiBCapacity(32), "V100-32G"},
		{2020, units.GiBCapacity(80), "A100-80G"},
		{2021, units.GiBCapacity(128), "MI250"},
		{2022, units.GiBCapacity(96), "H100-class"},
	}
}

// CapacityAt projects per-device memory capacity at a given year by a
// linear fit over CapacityTrend — linear because that is exactly the
// assumption the paper stresses ("if the trend of linear scaling of
// device memory capacity continues").
func CapacityAt(year int) (units.Bytes, error) {
	trend := CapacityTrend()
	xs := make([]float64, len(trend))
	ys := make([]float64, len(trend))
	for i, p := range trend {
		xs[i] = float64(p.Year)
		ys[i] = float64(p.Capacity)
	}
	fit, err := stats.FitAffine(xs, ys)
	if err != nil {
		return 0, err
	}
	c := fit.Eval(float64(year))
	if c <= 0 {
		return 0, fmt.Errorf("hw: capacity trend non-positive at year %d", year)
	}
	return units.Bytes(c), nil
}

// CapacityScale returns the projected memory-capacity scaling ratio s
// between two years under the linear trend.
func CapacityScale(fromYear, toYear int) (float64, error) {
	from, err := CapacityAt(fromYear)
	if err != nil {
		return 0, err
	}
	to, err := CapacityAt(toYear)
	if err != nil {
		return 0, err
	}
	return float64(to) / float64(from), nil
}

// DeployedCapacity returns the per-device memory capacity of the
// accelerators that large-scale training runs actually deployed in a
// given year — a step function over real parts, distinct from the smooth
// trend line. The paper's required-TP estimator (§4.3.2) divides by this
// generation-over-generation ratio s: Megatron-LM BERT trained on
// V100-32G-class devices; MT-NLG on A100-80G.
func DeployedCapacity(year int) units.Bytes {
	switch {
	case year <= 2017:
		return units.GiBCapacity(16) // P100 era
	case year <= 2019:
		return units.GiBCapacity(32) // V100-32G
	case year == 2020:
		return units.GiBCapacity(40) // A100-40G
	case year <= 2022:
		return units.GiBCapacity(80) // A100-80G / H100
	default:
		// Beyond the catalog: continue the linear trend from the
		// 80 GiB 2022 anchor (~16 GiB/year, the CapacityTrend slope).
		return units.Bytes(float64(units.GiBCapacity(80)) +
			float64(year-2022)*16*units.GiB)
	}
}

// DeployedCapacityScale returns the deployed-capacity ratio s between two
// years, the divisor in required TP = base_TP · p/s.
func DeployedCapacityScale(fromYear, toYear int) float64 {
	return float64(DeployedCapacity(toYear)) / float64(DeployedCapacity(fromYear))
}
