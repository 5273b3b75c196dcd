package hw

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"twocs/internal/tensor"
	"twocs/internal/units"
)

func TestCatalogValid(t *testing.T) {
	cat := Catalog()
	if len(cat) != 5 {
		t.Fatalf("catalog has %d devices, want 5", len(cat))
	}
	for _, d := range cat {
		if err := d.Validate(); err != nil {
			t.Errorf("device %s invalid: %v", d.Name, err)
		}
	}
	// Sorted by year.
	for i := 1; i < len(cat); i++ {
		if cat[i].Year < cat[i-1].Year {
			t.Errorf("catalog not sorted by year: %s(%d) after %s(%d)",
				cat[i].Name, cat[i].Year, cat[i-1].Name, cat[i-1].Year)
		}
	}
}

func TestLookupDevice(t *testing.T) {
	d, err := LookupDevice("MI210")
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "MI210" || d.Year != 2022 {
		t.Errorf("lookup returned %+v", d)
	}
	if _, err := LookupDevice("TPU-v9"); err == nil {
		t.Error("expected unknown-device error")
	}
}

func TestPeakForFallsBackToFP32(t *testing.T) {
	// MI50 has no FP8 entry; it must fall back to FP32.
	if got := MI50.PeakFor(tensor.FP8); got != MI50.Peak[tensor.FP32] {
		t.Errorf("FP8 fallback = %v, want FP32 peak %v", got, MI50.Peak[tensor.FP32])
	}
	if got := MI210.PeakFor(tensor.FP16); got != units.TFLOPS(181) {
		t.Errorf("MI210 FP16 peak = %v", got)
	}
}

func TestMI210FP16Is4xFP32(t *testing.T) {
	// The paper (§6.2) states MI210 FP16 throughput is ~4× FP32.
	ratio := float64(MI210.PeakFor(tensor.FP16)) / float64(MI210.PeakFor(tensor.FP32))
	if ratio < 3.9 || ratio > 4.1 {
		t.Errorf("FP16/FP32 ratio = %v, want ~4", ratio)
	}
}

func TestDeviceValidate(t *testing.T) {
	bad := DeviceSpec{Name: "x"}
	if err := bad.Validate(); err == nil {
		t.Error("empty peak map must be invalid")
	}
	if err := (DeviceSpec{}).Validate(); err == nil {
		t.Error("unnamed device must be invalid")
	}
	noMem := MI210
	noMem.MemBandwidth = 0
	if err := noMem.Validate(); err == nil {
		t.Error("zero membw must be invalid")
	}
}

func TestMI210Node(t *testing.T) {
	n := MI210Node()
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if n.Count != 4 {
		t.Errorf("Count = %d, want 4", n.Count)
	}
	if n.EffectiveRingBW() != units.GBps(150) {
		t.Errorf("ring bw = %v, want 150 GB/s", n.EffectiveRingBW())
	}
	// Without explicit ring bandwidth, fall back to link bandwidth.
	n.RingBandwidth = 0
	if n.EffectiveRingBW() != n.Link.Bandwidth {
		t.Error("EffectiveRingBW fallback failed")
	}
}

func TestNodeValidate(t *testing.T) {
	n := MI210Node()
	n.Count = 0
	if err := n.Validate(); err == nil {
		t.Error("zero-count node must be invalid")
	}
	n = MI210Node()
	n.Link = Link{}
	if err := n.Validate(); err == nil {
		t.Error("multi-device node without link must be invalid")
	}
	single := Node{Device: MI210, Count: 1}
	if err := single.Validate(); err != nil {
		t.Errorf("single-device node should not need a link: %v", err)
	}
}

func TestClusterTopology(t *testing.T) {
	c := MI210Cluster(8, 1.0/8)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.TotalDevices() != 32 {
		t.Errorf("TotalDevices = %d, want 32", c.TotalDevices())
	}
	// Groups within a node use ring bandwidth; larger groups drop to
	// inter-node bandwidth.
	if got := c.GroupBandwidth(4); got != units.GBps(150) {
		t.Errorf("intra-node group bw = %v", got)
	}
	inter := c.GroupBandwidth(8)
	if math.Abs(float64(inter)-float64(units.GBps(150))/8) > 1 {
		t.Errorf("inter-node group bw = %v, want 150/8 GB/s", inter)
	}
	if c.GroupLatency(4) >= c.GroupLatency(8) {
		t.Error("inter-node latency should exceed intra-node latency")
	}
}

func TestClusterValidate(t *testing.T) {
	c := MI210Cluster(2, 0)
	if err := c.Validate(); err == nil {
		t.Error("multi-node cluster with zero inter-node bw must be invalid")
	}
	c = MI210Cluster(1, 0)
	if err := c.Validate(); err != nil {
		t.Errorf("single-node cluster should not need inter-node link: %v", err)
	}
	c = MI210Cluster(0, 1)
	if err := c.Validate(); err == nil {
		t.Error("zero-node cluster must be invalid")
	}
}

func TestEvolutionApply(t *testing.T) {
	e := FlopVsBWScenario(4)
	if e.FlopVsBW() != 4 {
		t.Errorf("FlopVsBW = %v", e.FlopVsBW())
	}
	n := MI210Node()
	scaled := e.ApplyNode(n)
	if got := scaled.Device.PeakFor(tensor.FP16); got != units.FLOPSRate(4*float64(units.TFLOPS(181))) {
		t.Errorf("scaled FP16 peak = %v", got)
	}
	if scaled.Link.Bandwidth != n.Link.Bandwidth {
		t.Error("NetScale=1 must leave link bandwidth unchanged")
	}
	if scaled.Device.MemCapacity != n.Device.MemCapacity {
		t.Error("MemCapScale=1 must leave capacity unchanged")
	}
	if scaled.Device.MemBandwidth != units.ByteRate(4*float64(n.Device.MemBandwidth)) {
		t.Error("MemBWScale should follow compute in flop-vs-bw scenarios")
	}
}

func TestEvolutionApplyCluster(t *testing.T) {
	e := Evolution{Name: "netx2", FlopScale: 1, NetScale: 2, MemBWScale: 1, MemCapScale: 1}
	c := MI210Cluster(4, 1.0/8)
	scaled := e.ApplyCluster(c)
	if scaled.InterNode.Bandwidth != units.ByteRate(2*float64(c.InterNode.Bandwidth)) {
		t.Error("inter-node bandwidth not scaled")
	}
	if scaled.Node.RingBandwidth != units.ByteRate(2*float64(c.Node.RingBandwidth)) {
		t.Error("ring bandwidth not scaled")
	}
}

func TestEvolutionValidate(t *testing.T) {
	if err := Identity().Validate(); err != nil {
		t.Error(err)
	}
	if err := (Evolution{FlopScale: 1}).Validate(); err == nil {
		t.Error("zero scales must be invalid")
	}
}

func TestPaperScenarios(t *testing.T) {
	sc := PaperScenarios()
	if len(sc) != 3 {
		t.Fatalf("want 3 scenarios, got %d", len(sc))
	}
	want := []float64{1, 2, 4}
	for i, e := range sc {
		if e.FlopVsBW() != want[i] {
			t.Errorf("scenario %d FlopVsBW = %v, want %v", i, e.FlopVsBW(), want[i])
		}
		if err := e.Validate(); err != nil {
			t.Error(err)
		}
	}
}

func TestHistoricalFlopVsBWBracketsPaperRange(t *testing.T) {
	// The paper derives 2-4× relative scaling from 2018→2020 datasheets.
	for vendor, r := range HistoricalFlopVsBW() {
		if r < 2 || r > 4.5 {
			t.Errorf("%s ratio %v outside the paper's 2-4x band", vendor, r)
		}
	}
}

func TestCapacityTrendAndScale(t *testing.T) {
	c2022, err := CapacityAt(2022)
	if err != nil {
		t.Fatal(err)
	}
	c2026, err := CapacityAt(2026)
	if err != nil {
		t.Fatal(err)
	}
	if c2026 <= c2022 {
		t.Error("capacity trend must increase with year")
	}
	s, err := CapacityScale(2019, 2022)
	if err != nil {
		t.Fatal(err)
	}
	if s <= 1 || s > 5 {
		t.Errorf("2019→2022 capacity scale = %v, want a modest >1 factor", s)
	}
}

func TestCapacityTrendIsLinearNotExponential(t *testing.T) {
	// The core tension of Fig 6: models grow ~exponentially, capacity
	// ~linearly. Verify the trend's year-over-year ratio decays.
	r1, err := CapacityScale(2018, 2020)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := CapacityScale(2024, 2026)
	if err != nil {
		t.Fatal(err)
	}
	if r2 >= r1 {
		t.Errorf("linear trend must have decaying growth ratio: %v then %v", r1, r2)
	}
}

// Property: applying an evolution twice composes multiplicatively on peaks.
func TestEvolutionCompositionProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		fa := 1 + float64(a%10)
		fb := 1 + float64(b%10)
		ea := Evolution{Name: "a", FlopScale: fa, NetScale: 1, MemBWScale: 1, MemCapScale: 1}
		eb := Evolution{Name: "b", FlopScale: fb, NetScale: 1, MemBWScale: 1, MemCapScale: 1}
		d := ea.ApplyDevice(eb.ApplyDevice(MI210))
		want := float64(MI210.PeakFor(tensor.FP16)) * fa * fb
		got := float64(d.PeakFor(tensor.FP16))
		return math.Abs(got-want) <= 1e-6*want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// LookupDevice finds a catalog device by name.
func LookupDevice(name string) (DeviceSpec, error) {
	for _, d := range Catalog() {
		if d.Name == name {
			return d, nil
		}
	}
	return DeviceSpec{}, fmt.Errorf("hw: unknown device %q", name)
}

// HistoricalFlopVsBW returns the observed 2018→2020 compute-vs-network
// scaling ratios the paper derives from vendor datasheets: NVIDIA ~5×
// compute vs ~2× network, AMD ~7× vs ~1.7× — i.e. relative ratios of
// ~2.5× and ~4.1×, bracketing the 2×/4× scenarios.
func HistoricalFlopVsBW() map[string]float64 {
	// The paper's ~5× NVIDIA compute figure compares V100 FP16 tensor
	// peak (125 TFLOP/s) against A100's sparsity-enabled FP16 peak
	// (624 TFLOP/s), which the dense-math catalog entry excludes.
	const a100SparseFP16 = 624e12
	nv := a100SparseFP16 / float64(V100.PeakFor(tensor.FP16)) // ~5x
	amd := float64(MI100.PeakFor(tensor.FP16)) / float64(MI50.PeakFor(tensor.FP16))
	// Network: NVLink2 300 GB/s → NVLink3 600 GB/s (2.0×);
	// Infinity Fabric gen2 ~92 GB/s → gen3 ~150 GB/s (~1.63×).
	return map[string]float64{
		"NVIDIA 2018-2020": nv / 2.0,
		"AMD 2018-2020":    amd / 1.63,
	}
}
