package dist

import (
	"math"
	"testing"
)

func pipelinePlan(stages, micro int) PipelinePlan {
	p := testPlan(4, 1)
	p.Model.Layers = 8
	p.Cluster.NumNodes = 8
	return PipelinePlan{Plan: p, Stages: stages, MicroBatches: micro}
}

func TestPipelineValidate(t *testing.T) {
	if err := pipelinePlan(4, 8).Validate(); err != nil {
		t.Error(err)
	}
	if err := pipelinePlan(1, 8).Validate(); err == nil {
		t.Error("single stage accepted")
	}
	if err := pipelinePlan(3, 8).Validate(); err == nil {
		t.Error("indivisible stage count accepted")
	}
	if err := pipelinePlan(4, 0).Validate(); err == nil {
		t.Error("zero micro-batches accepted")
	}
}

func TestPipelineBubbleFormula(t *testing.T) {
	tm := newTimer(t, pipelinePlan(4, 8).Plan)
	rep, err := AnalyzePipeline(pipelinePlan(4, 8), tm)
	if err != nil {
		t.Fatal(err)
	}
	want := 3.0 / 11.0 // (P-1)/(M+P-1)
	if math.Abs(rep.BubbleFraction-want) > 1e-12 {
		t.Errorf("bubble = %v, want %v", rep.BubbleFraction, want)
	}
}

func TestPipelineMoreMicroBatchesShrinkBubble(t *testing.T) {
	tm := newTimer(t, pipelinePlan(4, 2).Plan)
	small, err := AnalyzePipeline(pipelinePlan(4, 2), tm)
	if err != nil {
		t.Fatal(err)
	}
	large, err := AnalyzePipeline(pipelinePlan(4, 32), tm)
	if err != nil {
		t.Fatal(err)
	}
	if large.BubbleFraction >= small.BubbleFraction {
		t.Errorf("bubble must shrink with micro-batches: %v vs %v",
			large.BubbleFraction, small.BubbleFraction)
	}
	// This is exactly the paper's §6.1.2 point: killing the bubble
	// requires large effective batches.
	if large.BubbleFraction > 0.1 {
		t.Errorf("32 micro-batches should nearly hide the bubble, got %v",
			large.BubbleFraction)
	}
}

func TestPipelineCommOnCriticalPath(t *testing.T) {
	tm := newTimer(t, pipelinePlan(4, 8).Plan)
	rep, err := AnalyzePipeline(pipelinePlan(4, 8), tm)
	if err != nil {
		t.Fatal(err)
	}
	if rep.P2P <= 0 || rep.P2PFraction <= 0 {
		t.Errorf("stage transfers must cost time: %+v", rep)
	}
	if rep.SerializedARFraction <= 0 {
		t.Error("TP all-reduces inside stages must remain on the critical path")
	}
	if rep.TotalCommFraction() >= 1 {
		t.Errorf("comm fraction %v out of range", rep.TotalCommFraction())
	}
	if rep.Makespan <= rep.StageFwd+rep.StageBwd {
		t.Error("multi-micro-batch iteration must exceed one stage pass")
	}
}

func TestPipelineErrors(t *testing.T) {
	if _, err := AnalyzePipeline(pipelinePlan(4, 8), nil); err == nil {
		t.Error("nil timer accepted")
	}
	tm := newTimer(t, pipelinePlan(4, 8).Plan)
	if _, err := AnalyzePipeline(pipelinePlan(3, 8), tm); err == nil {
		t.Error("invalid plan accepted")
	}
}

func TestSimulatedPipelineMatchesAnalyticalModel(t *testing.T) {
	// The event-driven schedule and the closed-form occupancy model
	// must agree on the makespan within a few percent (the analytical
	// model folds p2p into the stage time; the simulator overlaps it).
	pp := pipelinePlan(4, 8)
	tm := newTimer(t, pp.Plan)
	analytical, err := AnalyzePipeline(pp, tm)
	if err != nil {
		t.Fatal(err)
	}
	trace, bubble, err := SimulatePipeline(pp, tm)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(trace.Makespan) / float64(analytical.Makespan)
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("simulated %v vs analytical %v (ratio %.3f)",
			trace.Makespan, analytical.Makespan, ratio)
	}
	// Measured bubble on stage 0 tracks (P-1)/(M+P-1).
	if math.Abs(bubble-analytical.BubbleFraction) > 0.1 {
		t.Errorf("simulated bubble %.3f vs analytical %.3f",
			bubble, analytical.BubbleFraction)
	}
}

func TestSimulatedPipelineBubbleShrinksWithMicroBatches(t *testing.T) {
	tm := newTimer(t, pipelinePlan(4, 2).Plan)
	_, b2, err := SimulatePipeline(pipelinePlan(4, 2), tm)
	if err != nil {
		t.Fatal(err)
	}
	_, b32, err := SimulatePipeline(pipelinePlan(4, 32), tm)
	if err != nil {
		t.Fatal(err)
	}
	if b32 >= b2 {
		t.Errorf("bubble must shrink with micro-batches: %v vs %v", b32, b2)
	}
}

func TestBuildPipelineScheduleWellFormed(t *testing.T) {
	pp := pipelinePlan(4, 4)
	tm := newTimer(t, pp.Plan)
	ops, err := BuildPipelineSchedule(pp, tm)
	if err != nil {
		t.Fatal(err)
	}
	// 4 stages × 4 micro × (fwd+bwd) compute ops plus 2×3×4 transfers.
	var compute, p2p int
	for _, o := range ops {
		switch o.Label {
		case LabelStageFwd, LabelStageBwd:
			compute++
		case LabelP2P:
			p2p++
		}
	}
	if compute != 32 {
		t.Errorf("compute ops = %d, want 32", compute)
	}
	if p2p != 24 {
		t.Errorf("p2p ops = %d, want 24", p2p)
	}
	if _, err := BuildPipelineSchedule(pp, nil); err == nil {
		t.Error("nil timer accepted")
	}
}
