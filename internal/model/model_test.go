package model

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"twocs/internal/stats"
	"twocs/internal/tensor"
	"twocs/internal/units"
)

func bertConfig() Config {
	e, _ := LookupZoo("BERT")
	return e.Config
}

func TestWithDefaults(t *testing.T) {
	c := Config{Name: "x", Layers: 2, Hidden: 1024, SeqLen: 512, Batch: 4}.WithDefaults()
	if c.FCDim != 4096 {
		t.Errorf("FCDim = %d, want 4096", c.FCDim)
	}
	if c.Heads != 16 {
		t.Errorf("Heads = %d, want 16", c.Heads)
	}
	if c.Vocab != 50_000 {
		t.Errorf("Vocab = %d", c.Vocab)
	}
	if c.DT != tensor.FP32 {
		t.Errorf("DT = %v, want FP32 (the paper's profiling format)", c.DT)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("defaulted config invalid: %v", err)
	}
}

func TestValidate(t *testing.T) {
	good := bertConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		mutate func(*Config)
		want   string
	}{
		{func(c *Config) { c.Layers = 0 }, "layers"},
		{func(c *Config) { c.Hidden = -1 }, "hidden"},
		{func(c *Config) { c.FCDim = 0 }, "fc dim"},
		{func(c *Config) { c.Heads = 0 }, "heads"},
		{func(c *Config) { c.Heads = 7 }, "divisible"},
		{func(c *Config) { c.SeqLen = 0 }, "sequence"},
		{func(c *Config) { c.Batch = 0 }, "batch"},
		{func(c *Config) { c.Vocab = -1 }, "vocab"},
	}
	for _, tc := range cases {
		c := good
		tc.mutate(&c)
		err := c.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("mutation expecting %q: err = %v", tc.want, err)
		}
	}
}

func TestValidateTP(t *testing.T) {
	c := bertConfig()
	if err := c.ValidateTP(8); err != nil {
		t.Error(err)
	}
	if err := c.ValidateTP(0); err == nil {
		t.Error("tp=0 accepted")
	}
	if err := c.ValidateTP(3); err == nil {
		t.Error("tp=3 should not divide 16 heads")
	}
}

// The closed-form parameter counts must reproduce the paper's Table 2
// sizes for the standard decoder architectures.
func TestZooParameterCountsMatchTable2(t *testing.T) {
	wantTol := map[string]float64{
		"BERT":        0.05,
		"GPT-2":       0.05,
		"Megatron-LM": 0.05,
		"T-NLG":       0.05,
		"GPT-3":       0.05,
		"MT-NLG":      0.05,
		"PaLM":        0.12, // PaLM's SwiGLU/multi-query arch deviates
	}
	for _, e := range Zoo() {
		tol, ok := wantTol[e.Config.Name]
		if !ok {
			continue // T5's 11B uses d_ff=64K, not the table's 4K row
		}
		got := e.Config.Params() / 1e9
		if re := stats.RelErr(got, e.PaperSizeB); re > tol {
			t.Errorf("%s: computed %.3gB vs paper %.3gB (err %.1f%%, tol %.0f%%)",
				e.Config.Name, got, e.PaperSizeB, re*100, tol*100)
		}
	}
}

func TestZooCompleteAndValid(t *testing.T) {
	zoo := Zoo()
	if len(zoo) != 8 {
		t.Fatalf("zoo has %d entries, want 8 (Table 2)", len(zoo))
	}
	for _, e := range zoo {
		if err := e.Config.Validate(); err != nil {
			t.Errorf("%s: %v", e.Config.Name, err)
		}
		if e.Year < 2018 || e.Year > 2022 {
			t.Errorf("%s: year %d out of Table 2 range", e.Config.Name, e.Year)
		}
	}
	// Chronologically ordered with monotone non-increasing batch.
	for i := 1; i < len(zoo); i++ {
		if zoo[i].Year < zoo[i-1].Year {
			t.Error("zoo not in publication order")
		}
		if zoo[i].Batch > zoo[i-1].Batch {
			t.Errorf("batch should not grow with era: %s has B=%d after B=%d",
				zoo[i].Config.Name, zoo[i].Batch, zoo[i-1].Batch)
		}
	}
}

func TestLookupZoo(t *testing.T) {
	if _, err := LookupZoo("PaLM"); err != nil {
		t.Error(err)
	}
	if _, err := LookupZoo("nope"); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestMegatronLMBERTSize(t *testing.T) {
	e := MegatronLMBERT()
	got := e.Config.Params() / 1e9
	if re := stats.RelErr(got, 3.9); re > 0.1 {
		t.Errorf("Megatron-LM BERT size %.3gB, want ~3.9B", got)
	}
	if e.TP != 8 {
		t.Errorf("base TP = %d, want 8", e.TP)
	}
}

func TestFutureModels(t *testing.T) {
	fm := FutureModels()
	if len(fm) != 4 {
		t.Fatalf("want 4 future models, got %d", len(fm))
	}
	for _, e := range fm {
		if err := e.Config.ValidateTP(e.TP); err != nil {
			t.Errorf("%s: %v", e.Config.Name, err)
		}
	}
	// The PaLM-3x case-study model (Fig 14): H=64K, SL=4K, B=1, TP=256.
	last := fm[len(fm)-1]
	if last.Config.Hidden != 65536 || last.Config.SeqLen != 4096 || last.Batch != 1 {
		t.Errorf("PaLM-3x config = %v", last.Config)
	}
}

func TestActivationBytesEquation5(t *testing.T) {
	c := bertConfig()
	// Eq 5: (precision/8)·H·SL·B.
	want := float64(c.DT.Size()) * float64(c.Hidden) * float64(c.SeqLen) * float64(c.Batch)
	if got := float64(c.ActivationBytes()); got != want {
		t.Errorf("ActivationBytes = %v, want %v", got, want)
	}
}

func TestLayerForwardOpsStructure(t *testing.T) {
	c := bertConfig()
	ops, err := LayerForwardOps(c, 8)
	if err != nil {
		t.Fatal(err)
	}
	var gemms, ars, norms, softmaxes int
	for _, o := range ops {
		switch o.Kind {
		case GEMM:
			gemms++
			if !o.GEMM.Valid() {
				t.Errorf("op %s has invalid GEMM %v", o.Name, o.GEMM)
			}
		case TPAllReduce:
			ars++
			if o.Bytes != c.ActivationBytes() {
				t.Errorf("op %s bytes = %v, want activation size", o.Name, o.Bytes)
			}
		case LayerNorm:
			norms++
		case Softmax:
			softmaxes++
		}
	}
	if gemms != 6 {
		t.Errorf("forward gemms = %d, want 6 (qkv, scores, ctx, proj, fc1, fc2)", gemms)
	}
	if ars != 2 {
		t.Errorf("forward TP all-reduces = %d, want 2", ars)
	}
	if norms != 2 || softmaxes != 1 {
		t.Errorf("norms=%d softmaxes=%d, want 2 and 1", norms, softmaxes)
	}
}

func TestForwardGEMMCount(t *testing.T) {
	// qkv, scores, ctx, proj, fc1, fc2 = 6 GEMMs forward.
	c := bertConfig()
	ops, err := LayerForwardOps(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	gemms := 0
	for _, o := range ops {
		if o.Kind == GEMM {
			gemms++
		}
	}
	if gemms != 6 {
		t.Errorf("forward gemms = %d, want 6", gemms)
	}
	// TP=1 has no all-reduces.
	for _, o := range ops {
		if o.Kind == TPAllReduce {
			t.Error("TP=1 must have no TP all-reduce")
		}
	}
}

func TestLayerOpsFourSerializedAllReduces(t *testing.T) {
	c := bertConfig()
	ops, err := LayerOps(c, 8)
	if err != nil {
		t.Fatal(err)
	}
	ars := 0
	for _, o := range ops {
		if o.Kind == TPAllReduce {
			ars++
		}
	}
	if ars != SerializedARCount {
		t.Errorf("serialized ARs per layer = %d, want %d (paper §3.3)", ars, SerializedARCount)
	}
}

func TestBackwardGEMMFLOPsAreTwiceForward(t *testing.T) {
	c := bertConfig()
	fwd, err := LayerForwardOps(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	bwd, err := LayerBackwardOps(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	sum := func(ops []OpDesc) float64 {
		s := 0.0
		for _, o := range ops {
			s += float64(o.FLOPs())
		}
		return s
	}
	fw, bw := sum(fwd), sum(bwd)
	if math.Abs(bw-2*fw) > 1e-6*fw {
		t.Errorf("backward GEMM FLOPs = %v, want exactly 2x forward %v", bw, fw)
	}
}

// The paper's Equation 4: per-layer GEMM work is O(H·SL·B/TP·(H+SL)).
// Verify the two component scalings empirically from the op graph.
func TestGEMMFLOPsComplexityScaling(t *testing.T) {
	base := Config{Name: "s", Layers: 1, Hidden: 4096, FCDim: 16384, Heads: 32,
		Vocab: 0, SeqLen: 2048, Batch: 4, DT: tensor.FP16}
	flops := func(c Config, tp int) float64 {
		f, err := GEMMFLOPsPerLayer(c, tp)
		if err != nil {
			t.Fatal(err)
		}
		return float64(f)
	}
	// 1/TP scaling: doubling TP halves per-device work.
	if r := flops(base, 4) / flops(base, 8); math.Abs(r-2) > 1e-9 {
		t.Errorf("TP scaling ratio = %v, want 2", r)
	}
	// B scaling: linear.
	b2 := base
	b2.Batch = 8
	if r := flops(b2, 4) / flops(base, 4); math.Abs(r-2) > 1e-9 {
		t.Errorf("B scaling ratio = %v, want 2", r)
	}
	// H scaling at SL<<H approaches quadratic.
	h2 := base
	h2.Hidden, h2.FCDim, h2.Heads = 8192, 32768, 64
	r := flops(h2, 4) / flops(base, 4)
	if r < 3.5 || r > 4.3 {
		t.Errorf("H doubling ratio = %v, want ~4", r)
	}
}

func TestDPGradientBytes(t *testing.T) {
	c := bertConfig()
	b1, err := DPGradientBytes(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	b8, err := DPGradientBytes(c, 8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(b1)/float64(b8)-8) > 1e-9 {
		t.Errorf("TP=8 must shard gradients 8x: %v vs %v", b1, b8)
	}
	want := c.LayerParams() * float64(c.DT.Size())
	if float64(b1) != want {
		t.Errorf("b1 = %v, want %v", b1, want)
	}
}

func TestSerializedARBytesPerLayer(t *testing.T) {
	c := bertConfig()
	b, err := SerializedARBytesPerLayer(c, 8)
	if err != nil {
		t.Fatal(err)
	}
	if float64(b) != 4*float64(c.ActivationBytes()) {
		t.Errorf("serialized bytes = %v, want 4 activations", b)
	}
	b1, err := SerializedARBytesPerLayer(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	if b1 != 0 {
		t.Error("TP=1 must have zero serialized comm")
	}
}

func TestMemoryModelPerDevice(t *testing.T) {
	mm := DefaultMemoryModel()
	e, _ := LookupZoo("GPT-3")
	m1, err := mm.PerDevice(e.Config, 1)
	if err != nil {
		t.Fatal(err)
	}
	m8, err := mm.PerDevice(e.Config, 8)
	if err != nil {
		t.Fatal(err)
	}
	if m8 >= m1 {
		t.Error("TP must reduce per-device memory")
	}
	// GPT-3 at TP=1 needs ~175B×16 ≈ 2.8TB — far beyond one device.
	if float64(m1) < 2e12 {
		t.Errorf("GPT-3 full state = %v, want >2TB", m1)
	}
	if _, err := mm.PerDevice(e.Config, 0); err == nil {
		t.Error("tp=0 accepted")
	}
	bad := MemoryModel{StateBytesPerParam: 0}
	if _, err := bad.PerDevice(e.Config, 1); err == nil {
		t.Error("zero state bytes accepted")
	}
}

func TestCheckpointingReducesMemory(t *testing.T) {
	e, _ := LookupZoo("GPT-3")
	on := MemoryModel{StateBytesPerParam: 16, ActivationCheckpointing: true}
	off := MemoryModel{StateBytesPerParam: 16, ActivationCheckpointing: false}
	mOn, err := on.PerDevice(e.Config, 8)
	if err != nil {
		t.Fatal(err)
	}
	mOff, err := off.PerDevice(e.Config, 8)
	if err != nil {
		t.Fatal(err)
	}
	if mOn >= mOff {
		t.Error("checkpointing must reduce memory")
	}
}

func TestRequiredTP(t *testing.T) {
	mm := DefaultMemoryModel()
	e, _ := LookupZoo("MT-NLG")
	tp, err := mm.RequiredTP(e.Config, 1e15, 1, 4096)
	if err != nil || tp != 1 {
		t.Errorf("huge capacity should allow TP=1, got %d, %v", tp, err)
	}
	if _, err := mm.RequiredTP(e.Config, 1e3, 1, 64); err == nil {
		t.Error("impossible fit accepted")
	}
	if _, err := mm.RequiredTP(e.Config, 0, 1, 64); err == nil {
		t.Error("zero capacity accepted")
	}
	tp, err = mm.RequiredTP(e.Config, units.GiBCapacity(64), 1, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if tp < 64 {
		t.Errorf("MT-NLG on 64GiB devices needs large TP, got %d", tp)
	}
}

func TestScaled(t *testing.T) {
	c := bertConfig()
	s := c.Scaled("BERT-2x", 2, 4)
	if s.Hidden != 2*c.Hidden || s.FCDim != 2*c.FCDim || s.SeqLen != 4*c.SeqLen {
		t.Errorf("Scaled = %v", s)
	}
	if s.Name != "BERT-2x" {
		t.Errorf("name = %q", s.Name)
	}
}

// Property: per-layer GEMM FLOPs scale exactly 1/TP for dividing degrees.
func TestFLOPsInverseTPProperty(t *testing.T) {
	c := Config{Name: "p", Layers: 1, Hidden: 2048, FCDim: 8192, Heads: 32,
		SeqLen: 1024, Batch: 2, DT: tensor.FP16}
	base, err := GEMMFLOPsPerLayer(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := func(k uint8) bool {
		tp := 1 << (k % 6) // 1..32, all divide heads=32 and fc=8192
		got, err := GEMMFLOPsPerLayer(c, tp)
		if err != nil {
			return false
		}
		want := float64(base) / float64(tp)
		return math.Abs(float64(got)-want) <= 1e-6*want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// WithDefaults fills zero fields with conventional values: FCDim=4H,
// Heads=H/64, Vocab=50K. DT's zero value is FP32, the format the paper's
// PyTorch-1.7 profiling used (reduced precision is a §6.2 discussion, not
// the main evaluation).
func (c Config) WithDefaults() Config {
	if c.FCDim == 0 {
		c.FCDim = 4 * c.Hidden
	}
	if c.Heads == 0 && c.Hidden >= 64 {
		c.Heads = c.Hidden / 64
	}
	if c.Vocab == 0 {
		c.Vocab = 50_000
	}
	return c
}

// SerializedARBytesPerLayer returns the total serialized communication
// volume of one layer's iteration — Equation 5 times SerializedARCount.
func SerializedARBytesPerLayer(c Config, tp int) (units.Bytes, error) {
	if err := c.ValidateTP(tp); err != nil {
		return 0, err
	}
	if tp == 1 {
		return 0, nil
	}
	return units.Bytes(SerializedARCount * float64(c.ActivationBytes())), nil
}

// GEMMFLOPsPerLayer sums the GEMM work of one layer's iteration on one
// device (forward + backward), the numerator of the paper's Equation 6.
func GEMMFLOPsPerLayer(c Config, tp int) (units.FLOPs, error) {
	ops, err := LayerOps(c, tp)
	if err != nil {
		return 0, err
	}
	var total units.FLOPs
	for _, o := range ops {
		total += o.FLOPs()
	}
	return total, nil
}
