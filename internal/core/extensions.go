package core

import (
	"fmt"

	"twocs/internal/hw"
	"twocs/internal/model"
	"twocs/internal/opmodel"
	"twocs/internal/units"
)

// This file implements the paper's Section 6 extensions: expert
// parallelism for Mixture-of-Experts models (§6.1.1), which adds
// serialized all-to-all communication to the critical path, and
// forward-only inference analysis (§6.3).

// MoEProjection extends an iteration projection with expert-parallel
// all-to-all communication.
type MoEProjection struct {
	opmodel.IterationProjection
	// AllToAll is the added serialized expert-routing communication.
	AllToAll units.Seconds
	// Experts is the expert-parallel degree.
	Experts int
}

// Total includes the all-to-all on the critical path.
func (p MoEProjection) Total() units.Seconds {
	return p.IterationProjection.Total() + p.AllToAll
}

// CommFraction is all serialized communication (all-reduce + all-to-all)
// over the total.
func (p MoEProjection) CommFraction() float64 {
	comm := float64(p.SerializedComm + p.AllToAll)
	return units.Ratio(comm, float64(p.Total()))
}

// MoEAllToAllsPerLayer is the number of serialized all-to-alls one MoE
// layer adds per iteration: dispatch and combine, in both forward and
// backward.
const MoEAllToAllsPerLayer = 4

// ProjectMoE projects a Transformer whose FC sub-layers are
// expert-parallel across `experts` devices: the dense projection plus
// four activation-sized all-to-alls per layer on the critical path. The
// all-to-all is priced on the ground-truth collective model over the
// intra-node path (consistent with the all-reduce treatment) and scaled
// by the evolution's network factor.
func (a *Analyzer) ProjectMoE(cfg model.Config, tp, experts int, evo hw.Evolution) (MoEProjection, error) {
	if experts < 2 {
		return MoEProjection{}, fmt.Errorf("core: expert parallelism needs >=2 experts, got %d", experts)
	}
	base, err := a.OpModel.ProjectIteration(cfg, tp, evo)
	if err != nil {
		return MoEProjection{}, err
	}
	sub, err := a.substrateFor(hw.Identity())
	if err != nil {
		return MoEProjection{}, err
	}
	one, err := sub.ring.AllToAll(experts, cfg.ActivationBytes())
	if err != nil {
		return MoEProjection{}, err
	}
	total := float64(one) * MoEAllToAllsPerLayer * float64(cfg.Layers) / evo.NetScale
	return MoEProjection{
		IterationProjection: base,
		AllToAll:            units.Seconds(total),
		Experts:             experts,
	}, nil
}

// ProjectInference projects a forward-only pass (§6.3): distributed
// inference under tensor parallelism keeps two serialized all-reduces per
// layer on the critical path.
func (a *Analyzer) ProjectInference(cfg model.Config, tp int, evo hw.Evolution) (opmodel.IterationProjection, error) {
	if err := evo.Validate(); err != nil {
		return opmodel.IterationProjection{}, err
	}
	lp, err := a.OpModel.ProjectLayerForward(cfg, tp)
	if err != nil {
		return opmodel.IterationProjection{}, err
	}
	compute, comm := lp.Scale(float64(cfg.Layers), evo)
	return opmodel.IterationProjection{
		Target:         cfg,
		TP:             tp,
		Evo:            evo,
		Compute:        compute,
		SerializedComm: comm,
	}, nil
}
