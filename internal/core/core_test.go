package core

import (
	"context"
	"math"
	"testing"

	"twocs/internal/hw"
	"twocs/internal/model"
	"twocs/internal/tensor"
)

func newAnalyzer(t testing.TB) *Analyzer {
	t.Helper()
	e, err := model.LookupZoo("BERT")
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAnalyzer(hw.MI210Cluster(1, 0), e.Config, 4)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestComputeOpsMatchesEquations(t *testing.T) {
	// Equations 1-3 at TP=1, FC=4H: FC GEMMs 16·H²·SL·B, attention
	// 4·H·SL²·B, linear 8·H²·SL·B → total H·SL·B·(24H + 4SL).
	c := model.Config{Name: "eq", Layers: 1, Hidden: 1024, FCDim: 4096,
		Heads: 16, SeqLen: 512, Batch: 2, DT: tensor.FP16}
	got, err := ComputeOps(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	h, sl, b := 1024.0, 512.0, 2.0
	want := h * sl * b * (24*h + 4*sl)
	if math.Abs(got-want) > 1e-6*want {
		t.Errorf("ComputeOps = %v, want %v", got, want)
	}
}

func TestComputeOpsMatchesOpGraph(t *testing.T) {
	// The closed-form equations and the operator graph must agree on
	// forward GEMM work: Eq 1-3 count forward only, the graph's forward
	// ops count the same work plus the attention-internal GEMMs, which
	// the equations include as Eq 2. Totals must match exactly.
	c := model.Config{Name: "eq", Layers: 1, Hidden: 2048, FCDim: 8192,
		Heads: 16, SeqLen: 1024, Batch: 2, DT: tensor.FP16}
	closed, err := ComputeOps(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	fwd, err := model.LayerForwardOps(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	graph := 0.0
	for _, o := range fwd {
		graph += float64(o.FLOPs())
	}
	if math.Abs(closed-graph) > 1e-6*graph {
		t.Errorf("closed-form %v != op graph %v", closed, graph)
	}
}

func TestAmdahlEdgeComplexity(t *testing.T) {
	c := model.Config{Name: "e", Layers: 1, Hidden: 4096, FCDim: 16384,
		Heads: 32, SeqLen: 2048, Batch: 1, DT: tensor.FP16}
	e1, err := EdgeComplexity(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := EdgeComplexity(c, 8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e1/e2-2) > 1e-9 {
		t.Errorf("edge must scale 1/TP: %v vs %v", e1, e2)
	}
	if e1 != (4096+2048)/4.0 {
		t.Errorf("edge = %v", e1)
	}
	// The dimensional edge (ops/byte) must also scale ∝(H+SL)/TP.
	a1, err := AmdahlEdge(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := AmdahlEdge(c, 8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a1/a2-2) > 1e-9 {
		t.Errorf("AmdahlEdge must scale 1/TP: %v %v", a1, a2)
	}
}

func TestSlackAdvantage(t *testing.T) {
	c := model.Config{SeqLen: 2048, Batch: 4}
	if SlackAdvantage(c) != 8192 {
		t.Errorf("slack = %v", SlackAdvantage(c))
	}
}

func TestAlgorithmicScalingReproducesFig7(t *testing.T) {
	rows, err := AlgorithmicScaling(model.Zoo())
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].NormEdge != 1 || rows[0].NormSlack != 1 {
		t.Error("first row must be the normalization reference")
	}
	last := rows[len(rows)-1] // PaLM
	// Paper Fig 7: slack drops ~75%, edge drops ~80% from BERT to the
	// newest models.
	if drop := 1 - last.NormSlack; drop < 0.65 || drop > 0.85 {
		t.Errorf("slack drop = %.0f%%, paper reports ~75%%", drop*100)
	}
	if drop := 1 - last.NormEdge; drop < 0.70 || drop > 0.90 {
		t.Errorf("edge drop = %.0f%%, paper reports ~80%%", drop*100)
	}
	if _, err := AlgorithmicScaling(nil); err == nil {
		t.Error("empty input accepted")
	}
}

func TestMemoryTrendGapWidens(t *testing.T) {
	capAt := func(year int) (float64, error) {
		c, err := hw.CapacityAt(year)
		return float64(c), err
	}
	rows, err := MemoryTrend(model.Zoo(), capAt)
	if err != nil {
		t.Fatal(err)
	}
	first, last := rows[0], rows[len(rows)-1]
	if first.NormDemand != 1 || first.NormCapacity != 1 {
		t.Error("normalization broken")
	}
	// Fig 6: demand must outgrow capacity dramatically.
	if last.NormDemand < 5*last.NormCapacity {
		t.Errorf("demand %.1fx vs capacity %.1fx — gap should be wide",
			last.NormDemand, last.NormCapacity)
	}
}

func TestNewAnalyzerChargesBaseline(t *testing.T) {
	a := newAnalyzer(t)
	if a.StrategyLedger.Total() <= 0 {
		t.Error("baseline profiling must cost accelerator time")
	}
	if a.OpModel == nil || a.Baseline == nil {
		t.Error("analyzer missing components")
	}
}

func TestSerializedFractionTrends(t *testing.T) {
	a := newAnalyzer(t)
	cfg, err := FutureConfig(16384, 2048, 1)
	if err != nil {
		t.Fatal(err)
	}
	f16, err := a.SerializedFraction(cfg, 16, hw.Identity())
	if err != nil {
		t.Fatal(err)
	}
	f64, err := a.SerializedFraction(cfg, 64, hw.Identity())
	if err != nil {
		t.Fatal(err)
	}
	if f64.CommFraction() <= f16.CommFraction() {
		t.Errorf("fraction must grow with TP: %v vs %v",
			f64.CommFraction(), f16.CommFraction())
	}
	// Larger H at fixed TP lowers the fraction (edge grows with H).
	big, err := FutureConfig(32768, 2048, 1)
	if err != nil {
		t.Fatal(err)
	}
	fbig, err := a.SerializedFraction(big, 16, hw.Identity())
	if err != nil {
		t.Fatal(err)
	}
	if fbig.CommFraction() >= f16.CommFraction() {
		t.Errorf("fraction must fall with H: %v vs %v",
			fbig.CommFraction(), f16.CommFraction())
	}
}

func TestSerializedSweepFig10Band(t *testing.T) {
	// Paper §4.3.4/Fig 10: across the highlighted configurations the
	// serialized fraction spans roughly 20-50% on current hardware,
	// reaching ~50% for H=64K at its required TP.
	a := newAnalyzer(t)
	pts, err := a.SerializedSweepCtx(context.Background(), []int{4096, 16384, 65536}, []int{2048},
		[]int{16, 64, 256}, 1, hw.Identity())
	if err != nil {
		t.Fatal(err)
	}
	get := func(h, tp int) float64 {
		for _, p := range pts {
			if p.H == h && p.TP == tp {
				return p.Fraction
			}
		}
		t.Fatalf("missing point H=%d TP=%d", h, tp)
		return 0
	}
	big := get(65536, 256) // PaLM-3x at its required TP
	if big < 0.15 || big > 0.60 {
		t.Errorf("H=64K TP=256 fraction = %.0f%%, paper reports ~50%% (see EXPERIMENTS.md on the level shift)", big*100)
	}
	med := get(4096, 16) // T-NLG-class
	if med < 0.05 || med > 0.50 {
		t.Errorf("H=4K TP=16 fraction = %.0f%%, paper band is 20-50%%", med*100)
	}
	if med >= big {
		t.Errorf("fraction should grow along the blue diagonal: %v vs %v", med, big)
	}
}

func TestSerializedSweepEvolutionRaisesFractions(t *testing.T) {
	// Fig 12: 2×/4× flop-vs-bw raise every grid point's fraction.
	a := newAnalyzer(t)
	hs, sls, tps := []int{4096, 16384}, []int{2048}, []int{16, 64}
	base, err := a.SerializedSweepCtx(context.Background(), hs, sls, tps, 1, hw.Identity())
	if err != nil {
		t.Fatal(err)
	}
	x4, err := a.SerializedSweepCtx(context.Background(), hs, sls, tps, 1, hw.FlopVsBWScenario(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != len(x4) {
		t.Fatal("sweep size mismatch")
	}
	for i := range base {
		if x4[i].Fraction <= base[i].Fraction {
			t.Errorf("point %d: 4x fraction %v <= base %v", i, x4[i].Fraction, base[i].Fraction)
		}
	}
}

func TestOverlappedSweepFig11Trends(t *testing.T) {
	a := newAnalyzer(t)
	pts, err := a.OverlappedSweepCtx(context.Background(), []int{2048, 8192}, []int{1024, 4096, 16384}, 16, hw.Identity())
	if err != nil {
		t.Fatal(err)
	}
	get := func(h, slb int) float64 {
		for _, p := range pts {
			if p.H == h && p.SLB == slb {
				return p.Percent
			}
		}
		t.Fatalf("missing point H=%d SLB=%d", h, slb)
		return 0
	}
	// Overlap % falls as SL·B grows (slack = O(SL·B)).
	if !(get(2048, 1024) > get(2048, 4096) && get(2048, 4096) > get(2048, 16384)) {
		t.Errorf("overlap%% must fall with SL·B: %v %v %v",
			get(2048, 1024), get(2048, 4096), get(2048, 16384))
	}
	// Overlap % is higher at smaller H (network under-utilization).
	if get(2048, 4096) <= get(8192, 4096) {
		t.Errorf("overlap%% must be higher at smaller H: H2K=%v H8K=%v",
			get(2048, 4096), get(8192, 4096))
	}
}

func TestOverlappedEvolutionExposesComm(t *testing.T) {
	// Fig 13: with 4× compute scaling some configurations cross 100% —
	// communication can no longer be hidden.
	a := newAnalyzer(t)
	cfg, err := FutureConfig(1024, 1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	base, err := a.OverlappedPercent(cfg, 16, hw.Identity())
	if err != nil {
		t.Fatal(err)
	}
	x4, err := a.OverlappedPercent(cfg, 16, hw.FlopVsBWScenario(4))
	if err != nil {
		t.Fatal(err)
	}
	if x4 <= base {
		t.Errorf("evolution must raise overlap%%: %v vs %v", x4, base)
	}
	if x4 < 100 {
		t.Errorf("small-H config at 4x should expose comm (>=100%%), got %.0f%%", x4)
	}
}

func TestSweepConfigCountIs196(t *testing.T) {
	if got := SweepConfigCount(); got != 196 {
		t.Errorf("sweep count = %d, want 196 (paper §4.3.8)", got)
	}
}

func TestFutureConfigValidation(t *testing.T) {
	if _, err := FutureConfig(0, 1024, 1); err == nil {
		t.Error("H=0 accepted")
	}
	c, err := FutureConfig(65536, 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ValidateTP(256); err != nil {
		t.Errorf("PaLM-3x config must support TP=256: %v", err)
	}
}

func TestCaseStudyFig14(t *testing.T) {
	a := newAnalyzer(t)
	// Scaled-down Fig 14 setup (fewer layers for test speed; fractions
	// are layer-count-stable away from the tail).
	cfg, err := FutureConfig(65536, 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Layers = 8
	res, err := a.CaseStudyCtx(context.Background(), cfg, 128, 4, hw.FlopVsBWScenario(4), PaperScenariosFig14())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("want 3 scenarios, got %d", len(res))
	}
	ideal := res[0]
	// Fig 14: ~47% serialized comm; DP comm essentially hidden.
	if ideal.SerializedCommFrac < 0.35 || ideal.SerializedCommFrac > 0.65 {
		t.Errorf("serialized fraction = %.0f%%, paper reports 47%%", ideal.SerializedCommFrac*100)
	}
	if ideal.ExposedDPFrac > 0.05 {
		t.Errorf("ideal scenario DP exposure = %.1f%%, should be ~hidden", ideal.ExposedDPFrac*100)
	}
	// Scenario 3: slower inter-node DP + interference must expose DP
	// comm and lengthen the iteration.
	worst := res[2]
	if worst.ExposedDPFrac <= ideal.ExposedDPFrac {
		t.Error("inter-node scenario must expose more DP comm")
	}
	if worst.Makespan <= ideal.Makespan {
		t.Error("inter-node + interference must lengthen the iteration")
	}
}

func TestCaseStudyValidation(t *testing.T) {
	a := newAnalyzer(t)
	cfg, _ := FutureConfig(4096, 1024, 1)
	if _, err := a.CaseStudyCtx(context.Background(), cfg, 16, 1, hw.Identity(), PaperScenariosFig14()); err == nil {
		t.Error("DP=1 accepted")
	}
	if _, err := a.CaseStudyCtx(context.Background(), cfg, 16, 4, hw.Identity(), nil); err == nil {
		t.Error("no scenarios accepted")
	}
	bad := []CaseScenario{{Name: "x", DPBandwidthFraction: 0, Interference: 1}}
	if _, err := a.CaseStudyCtx(context.Background(), cfg, 16, 4, hw.Identity(), bad); err == nil {
		t.Error("invalid scenario accepted")
	}
}

func TestExhaustiveCostDwarfsStrategy(t *testing.T) {
	// Directional check of the §4.3.8 claim at small scale: pricing
	// even a handful of large configs end-to-end costs orders of
	// magnitude more accelerator time than the baseline profile.
	a := newAnalyzer(t)
	var exhaustive float64
	for _, h := range []int{8192, 16384} {
		cfg, err := FutureConfig(h, 2048, 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Layers = 96
		c, err := a.ExhaustiveIterationCost(cfg, 16)
		if err != nil {
			t.Fatal(err)
		}
		exhaustive += float64(c)
	}
	if exhaustive < 10*float64(a.StrategyLedger.Total()) {
		t.Errorf("exhaustive %v should dwarf strategy %v",
			exhaustive, a.StrategyLedger.Total())
	}
}
