package dist

import (
	"fmt"

	"twocs/internal/collective"
	"twocs/internal/model"
	"twocs/internal/units"
)

// This file models pipeline parallelism (paper §6.1.2): the model is
// split horizontally into stages, micro-batches stream through them, and
// stage-to-stage activation transfers join the critical path alongside
// the pipeline's warm-up/drain bubble. The paper folds this technique
// into its discussion rather than its evaluation; here it is a first-
// class analysis so PP-vs-TP trade-offs can be explored quantitatively.
type PipelinePlan struct {
	Plan
	// Stages is the pipeline depth (must divide the layer count).
	Stages int
	// MicroBatches is the number of in-flight micro-batches per
	// iteration; Plan.Model.Batch is the per-micro-batch size.
	MicroBatches int
}

// Validate extends Plan validation with pipeline constraints.
func (p PipelinePlan) Validate() error {
	if err := p.Plan.Validate(); err != nil {
		return err
	}
	if p.Stages < 2 {
		return fmt.Errorf("dist: pipeline needs >=2 stages, got %d", p.Stages)
	}
	if p.Model.Layers%p.Stages != 0 {
		return fmt.Errorf("dist: %d layers not divisible into %d stages",
			p.Model.Layers, p.Stages)
	}
	if p.MicroBatches < 1 {
		return fmt.Errorf("dist: pipeline needs >=1 micro-batches, got %d", p.MicroBatches)
	}
	return nil
}

// PipelineReport summarizes a GPipe-style pipelined iteration.
type PipelineReport struct {
	// StageFwd/StageBwd are one stage's per-micro-batch compute (plus
	// serialized TP all-reduce) times; P2P is one stage-boundary
	// activation transfer.
	StageFwd, StageBwd, P2P units.Seconds
	// Makespan is the full-iteration time across all micro-batches.
	Makespan units.Seconds
	// BubbleFraction is the idle warm-up/drain share (P-1)/(M+P-1).
	BubbleFraction float64
	// P2PFraction and SerializedARFraction are the shares of the
	// makespan spent on stage transfers and on the TP all-reduces
	// inside stages.
	P2PFraction          float64
	SerializedARFraction float64
}

// TotalCommFraction is all critical-path communication: stage transfers
// plus in-stage serialized all-reduces.
func (r PipelineReport) TotalCommFraction() float64 {
	return r.P2PFraction + r.SerializedARFraction
}

// AnalyzePipeline prices a GPipe-style schedule: all micro-batch forwards
// flow through the stages, then all backwards, with the classic
// (M+P-1)/(M) occupancy. Stage-boundary transfers ride the slow path when
// the pipeline spans nodes.
func AnalyzePipeline(pp PipelinePlan, timer *Timer) (PipelineReport, error) {
	if err := pp.Validate(); err != nil {
		return PipelineReport{}, err
	}
	if timer == nil {
		return PipelineReport{}, fmt.Errorf("dist: nil timer")
	}
	layersPerStage := pp.Model.Layers / pp.Stages

	// One layer's forward and backward cost, split compute vs TP-AR.
	fwdOps, err := model.LayerForwardOps(pp.Model, pp.TP)
	if err != nil {
		return PipelineReport{}, err
	}
	bwdOps, err := model.LayerBackwardOps(pp.Model, pp.TP)
	if err != nil {
		return PipelineReport{}, err
	}
	sum := func(ops []model.OpDesc) (total, ar units.Seconds, err error) {
		for _, op := range ops {
			d, err := timer.Time(op)
			if err != nil {
				return 0, 0, err
			}
			total += d
			if op.Kind == model.TPAllReduce {
				ar += d
			}
		}
		return total, ar, nil
	}
	fwd, fwdAR, err := sum(fwdOps)
	if err != nil {
		return PipelineReport{}, err
	}
	bwd, bwdAR, err := sum(bwdOps)
	if err != nil {
		return PipelineReport{}, err
	}

	// Stage-boundary activation transfer: each device of a TP group
	// sends its 1/TP slice of the [B,SL,H] activation to its peer in
	// the next stage. The path spans nodes whenever a full pipeline
	// replica does not fit in one.
	p2pSpan := pp.TP * pp.Stages
	path, err := collective.PathForGroup(pp.Cluster, min(p2pSpan, pp.Cluster.TotalDevices()))
	if err != nil {
		return PipelineReport{}, err
	}
	cm, err := collective.NewCostModel(path, pp.Algo)
	if err != nil {
		return PipelineReport{}, err
	}
	sliceBytes := units.Bytes(float64(pp.Model.ActivationBytes()) / float64(pp.TP))
	p2p, err := cm.PointToPoint(sliceBytes)
	if err != nil {
		return PipelineReport{}, err
	}

	stageFwd := units.Seconds(float64(fwd)*float64(layersPerStage)) + p2p
	stageBwd := units.Seconds(float64(bwd)*float64(layersPerStage)) + p2p
	m := float64(pp.MicroBatches)
	p := float64(pp.Stages)
	// GPipe occupancy: the slowest stage's work is executed M times
	// plus (P-1) warm-up/drain slots for forward and backward each.
	makespan := (m + p - 1) * float64(stageFwd+stageBwd)

	arPerStage := float64(fwdAR+bwdAR) * float64(layersPerStage)
	return PipelineReport{
		StageFwd:             stageFwd,
		StageBwd:             stageBwd,
		P2P:                  p2p,
		Makespan:             units.Seconds(makespan),
		BubbleFraction:       (p - 1) / (m + p - 1),
		P2PFraction:          units.Ratio(2*float64(p2p)*m, makespan),
		SerializedARFraction: units.Ratio(arPerStage*m, makespan),
	}, nil
}
