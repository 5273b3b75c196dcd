package core

import (
	"context"
	"math"
	"testing"

	"twocs/internal/hw"
	"twocs/internal/model"
	"twocs/internal/tensor"
)

func TestMeasuredLayerSplit(t *testing.T) {
	a := newAnalyzer(t)
	cfg, err := FutureConfig(8192, 2048, 1)
	if err != nil {
		t.Fatal(err)
	}
	comp, comm, err := a.MeasuredLayerSplit(cfg, 16, hw.Identity())
	if err != nil {
		t.Fatal(err)
	}
	if comp <= 0 || comm <= 0 {
		t.Fatalf("split = %v, %v", comp, comm)
	}
	// 4x compute acceleration must shrink compute ~4x and leave comm.
	comp4, comm4, err := a.MeasuredLayerSplit(cfg, 16, hw.FlopVsBWScenario(4))
	if err != nil {
		t.Fatal(err)
	}
	r := float64(comp) / float64(comp4)
	if r < 3 || r > 4.5 {
		t.Errorf("compute acceleration ratio = %v, want ~4", r)
	}
	if comm4 != comm {
		t.Errorf("comm changed under NetScale=1: %v vs %v", comm4, comm)
	}
}

func TestPrecisionStudyParadox(t *testing.T) {
	// §6.2: FP16 shrinks compute ~4x but comm only 2x, so the comm
	// FRACTION must rise even as everything gets faster.
	a := newAnalyzer(t)
	cfg, err := FutureConfig(8192, 2048, 1)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := a.PrecisionStudy(cfg, 16, hw.Identity(),
		[]tensor.DType{tensor.FP32, tensor.FP16})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	fp32, fp16 := rows[0], rows[1]
	if fp16.Compute >= fp32.Compute {
		t.Error("FP16 compute must be faster")
	}
	if fp16.SerializedComm >= fp32.SerializedComm {
		t.Error("FP16 comm must be faster (half the bytes)")
	}
	if fp16.CommFraction <= fp32.CommFraction {
		t.Errorf("FP16 comm fraction %v must exceed FP32's %v (the §6.2 paradox)",
			fp16.CommFraction, fp32.CommFraction)
	}
	if _, err := a.PrecisionStudy(cfg, 16, hw.Identity(), nil); err == nil {
		t.Error("empty format list accepted")
	}
}

func TestTechniqueStudy(t *testing.T) {
	a := newAnalyzer(t)
	cfg, err := FutureConfig(16384, 2048, 1)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := a.TechniqueStudy(cfg, 64, hw.FlopVsBWScenario(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	base := rows[0]
	if base.SpeedupVsBaseline != 1 {
		t.Errorf("baseline speedup = %v", base.SpeedupVsBaseline)
	}
	for _, r := range rows[1:] {
		if r.SerializedComm >= base.SerializedComm {
			t.Errorf("%s: comm %v should beat baseline %v",
				r.Name, r.SerializedComm, base.SerializedComm)
		}
		if r.SpeedupVsBaseline <= 1 {
			t.Errorf("%s: speedup %v should exceed 1", r.Name, r.SpeedupVsBaseline)
		}
	}
	// Combining PIN with overlap must beat either alone.
	combined := rows[3]
	if combined.SerializedComm >= rows[1].SerializedComm ||
		combined.SerializedComm >= rows[2].SerializedComm {
		t.Error("combined technique should dominate the individual ones")
	}
}

func TestZeROStudy(t *testing.T) {
	a := newAnalyzer(t)
	cfg, err := FutureConfig(8192, 2048, 1)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := a.ZeROStudy(cfg, 16, 8, hw.Identity())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	plain, zero := rows[0], rows[1]
	// ZeRO trades memory for critical-path communication.
	if float64(zero.PerDeviceStateBytes)*7.9 > float64(plain.PerDeviceStateBytes)*8.1 {
		t.Errorf("ZeRO state %v should be ~1/8 of plain %v",
			zero.PerDeviceStateBytes, plain.PerDeviceStateBytes)
	}
	if zero.CriticalComm <= 0 {
		t.Error("ZeRO must put all-gathers on the critical path")
	}
	if plain.CriticalComm != 0 {
		t.Error("plain DP's gradient all-reduce is overlappable, not critical")
	}
	if _, err := a.ZeROStudy(cfg, 16, 1, hw.Identity()); err == nil {
		t.Error("dp=1 accepted")
	}
}

func TestZooTimeline(t *testing.T) {
	a := newAnalyzer(t)
	rows, err := a.ZooTimelineCtx(context.Background(), model.Zoo())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := make(map[string]ZooTimelineRow)
	for _, r := range rows {
		byName[r.Model] = r
		if r.TP >= 2 {
			if !(r.Frac1x < r.Frac2x && r.Frac2x < r.Frac4x) {
				t.Errorf("%s: fractions must grow with flop-vs-bw: %v %v %v",
					r.Model, r.Frac1x, r.Frac2x, r.Frac4x)
			}
		}
	}
	// BERT trained on one device: no serialized communication.
	if byName["BERT"].Frac1x != 0 {
		t.Errorf("BERT fraction = %v, want 0", byName["BERT"].Frac1x)
	}
	// The newest models must spend a substantial share communicating.
	if byName["MT-NLG"].Frac4x < 0.3 {
		t.Errorf("MT-NLG at 4x = %v, want substantial", byName["MT-NLG"].Frac4x)
	}
	// And the share must grow from the Megatron-LM era to the MT-NLG era.
	if byName["MT-NLG"].Frac1x <= byName["Megatron-LM"].Frac1x {
		t.Errorf("comm share should grow with era: Megatron-LM %v vs MT-NLG %v",
			byName["Megatron-LM"].Frac1x, byName["MT-NLG"].Frac1x)
	}
	if _, err := a.ZooTimelineCtx(context.Background(), nil); err == nil {
		t.Error("empty zoo accepted")
	}
}

func TestNearestPow2(t *testing.T) {
	cases := map[int]int{1024: 1024, 1600: 2048, 3072: 4096, 4256: 4096,
		12288: 16384, 20480: 16384, 18432: 16384, 0: 1}
	for in, want := range cases {
		if got := nearestPow2(in); got != want {
			t.Errorf("nearestPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestRequiredNetScale(t *testing.T) {
	a := newAnalyzer(t)
	cfg, err := FutureConfig(16384, 2048, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Baseline fraction at TP=64 and 1x hardware.
	comp, comm, err := a.MeasuredLayerSplit(cfg, 64, hw.Identity())
	if err != nil {
		t.Fatal(err)
	}
	baseFrac := float64(comm) / float64(comp+comm)

	// Holding the current fraction while compute scales 4x requires the
	// network to scale exactly 4x — the paper's "commensurate" claim.
	need, err := a.RequiredNetScale(cfg, 64, 4, baseFrac)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(need-4) > 1e-6 {
		t.Errorf("commensurate scaling = %v, want 4", need)
	}
	// Driving the fraction DOWN needs the network to scale faster than
	// compute ("if not more").
	need, err = a.RequiredNetScale(cfg, 64, 4, baseFrac/2)
	if err != nil {
		t.Fatal(err)
	}
	if need <= 4 {
		t.Errorf("halving the fraction needs >4x network, got %v", need)
	}
	if _, err := a.RequiredNetScale(cfg, 64, 0, 0.5); err == nil {
		t.Error("zero flop scale accepted")
	}
	if _, err := a.RequiredNetScale(cfg, 64, 4, 1.5); err == nil {
		t.Error("fraction >1 accepted")
	}
	// A TP=1 model has no serialized comm: scale 1 suffices.
	solo := cfg
	need, err = a.RequiredNetScale(solo, 1, 8, 0.1)
	if err != nil || need != 1 {
		t.Errorf("no-comm case: %v, %v", need, err)
	}
}

func TestScalingStudy(t *testing.T) {
	a := newAnalyzer(t)
	cfg, err := FutureConfig(8192, 2048, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Layers = 4
	rows, err := a.ScalingStudyCtx(context.Background(), cfg, 256, []int{2, 8, 32, 128}, hw.Identity())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// More TP = fewer DP replicas + more serialized comm = lower global
	// throughput on a fixed budget.
	for i := 1; i < len(rows); i++ {
		if rows[i].TP <= rows[i-1].TP {
			t.Fatal("rows not ordered by TP")
		}
		if rows[i].TokensPerSec >= rows[i-1].TokensPerSec {
			t.Errorf("throughput should fall with TP: TP=%d %.0f vs TP=%d %.0f tok/s",
				rows[i].TP, rows[i].TokensPerSec, rows[i-1].TP, rows[i-1].TokensPerSec)
		}
		if rows[i].CommFraction <= rows[i-1].CommFraction {
			t.Errorf("comm fraction should grow with TP")
		}
	}
	if _, err := a.ScalingStudyCtx(context.Background(), cfg, 1, []int{2}, hw.Identity()); err == nil {
		t.Error("single device accepted")
	}
	if _, err := a.ScalingStudyCtx(context.Background(), cfg, 256, nil, hw.Identity()); err == nil {
		t.Error("empty tps accepted")
	}
	if _, err := a.ScalingStudyCtx(context.Background(), cfg, 6, []int{4}, hw.Identity()); err == nil {
		t.Error("infeasible split accepted")
	}
}

func TestProjectMoECore(t *testing.T) {
	a := newAnalyzer(t)
	cfg, err := FutureConfig(8192, 2048, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Layers = 24
	dense, err := a.SerializedFraction(cfg, 16, hw.Identity())
	if err != nil {
		t.Fatal(err)
	}
	moe8, err := a.ProjectMoE(cfg, 16, 8, hw.Identity())
	if err != nil {
		t.Fatal(err)
	}
	if moe8.AllToAll <= 0 || moe8.Experts != 8 {
		t.Fatalf("moe projection = %+v", moe8)
	}
	// All-to-all adds to the critical path: the MoE comm fraction must
	// exceed the dense model's, and Total must grow by exactly AllToAll.
	if moe8.CommFraction() <= dense.CommFraction() {
		t.Errorf("MoE fraction %v should exceed dense %v",
			moe8.CommFraction(), dense.CommFraction())
	}
	delta := float64(moe8.Total() - moe8.IterationProjection.Total())
	if math.Abs(delta-float64(moe8.AllToAll)) > 1e-9*float64(moe8.AllToAll) {
		t.Errorf("Total delta %v != AllToAll %v", delta, moe8.AllToAll)
	}
	// More experts, more routing communication.
	moe32, err := a.ProjectMoE(cfg, 16, 32, hw.Identity())
	if err != nil {
		t.Fatal(err)
	}
	if moe32.AllToAll <= moe8.AllToAll {
		t.Error("all-to-all must grow with expert count")
	}
	// Network evolution shrinks the all-to-all.
	moeFast, err := a.ProjectMoE(cfg, 16, 8,
		hw.Evolution{Name: "net4", FlopScale: 1, NetScale: 4, MemBWScale: 1, MemCapScale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(moeFast.AllToAll)*4-float64(moe8.AllToAll)) > 1e-9*float64(moe8.AllToAll) {
		t.Errorf("4x network should quarter the all-to-all: %v vs %v",
			moeFast.AllToAll, moe8.AllToAll)
	}
	if _, err := a.ProjectMoE(cfg, 16, 1, hw.Identity()); err == nil {
		t.Error("single expert accepted")
	}
}

func TestProjectInferenceCore(t *testing.T) {
	a := newAnalyzer(t)
	cfg, err := FutureConfig(8192, 2048, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Layers = 24
	infer, err := a.ProjectInference(cfg, 16, hw.Identity())
	if err != nil {
		t.Fatal(err)
	}
	train, err := a.SerializedFraction(cfg, 16, hw.Identity())
	if err != nil {
		t.Fatal(err)
	}
	// Forward-only compute is a third of the iteration's GEMM work but
	// carries half the all-reduces: comm share must be higher.
	if infer.CommFraction() <= train.CommFraction() {
		t.Errorf("inference fraction %v should exceed training %v",
			infer.CommFraction(), train.CommFraction())
	}
	if infer.Compute >= train.Compute {
		t.Error("forward-only compute must be under a full iteration's")
	}
	if _, err := a.ProjectInference(cfg, 16, hw.Evolution{}); err == nil {
		t.Error("invalid evolution accepted")
	}
}

func TestGroundTruthTimerAndTable3Bs(t *testing.T) {
	a := newAnalyzer(t)
	timer, err := a.GroundTruthTimer(a.BaseCfg, a.BaseTP, hw.Identity())
	if err != nil {
		t.Fatal(err)
	}
	ops, err := model.LayerForwardOps(a.BaseCfg, a.BaseTP)
	if err != nil {
		t.Fatal(err)
	}
	if d, err := timer.Time(ops[0]); err != nil || d <= 0 {
		t.Errorf("ground truth timer: %v, %v", d, err)
	}
	if _, err := a.GroundTruthTimer(a.BaseCfg, a.BaseTP, hw.Evolution{}); err == nil {
		t.Error("invalid evolution accepted")
	}
	if bs := Table3Bs(); len(bs) != 2 || bs[0] != 1 || bs[1] != 4 {
		t.Errorf("Table3Bs = %v", bs)
	}
}
