package dist

import (
	"fmt"

	"twocs/internal/collective"
	"twocs/internal/model"
	"twocs/internal/sim"
	"twocs/internal/units"
)

// This file lowers a GPipe-style pipelined iteration onto the
// discrete-event simulator, with one simulated device per pipeline stage:
// micro-batch forwards flow down the stages, backwards flow up, and
// stage-boundary transfers ride each device's comm stream. It exists to
// validate the closed-form occupancy model in pipeline.go against an
// actual schedule — the same model-vs-execution discipline the paper
// applies to its operator models.

// Labels for pipeline schedule ops.
const (
	LabelStageFwd = "stage-fwd"
	LabelStageBwd = "stage-bwd"
	LabelP2P      = "p2p"
)

// BuildPipelineSchedule emits the simulator ops of one pipelined
// iteration. Device i hosts stage i.
func BuildPipelineSchedule(pp PipelinePlan, timer *Timer) ([]sim.Op, error) {
	if err := pp.Validate(); err != nil {
		return nil, err
	}
	if timer == nil {
		return nil, fmt.Errorf("dist: nil timer")
	}
	layersPerStage := pp.Model.Layers / pp.Stages

	fwdOps, err := model.LayerForwardOps(pp.Model, pp.TP)
	if err != nil {
		return nil, err
	}
	bwdOps, err := model.LayerBackwardOps(pp.Model, pp.TP)
	if err != nil {
		return nil, err
	}
	sumTime := func(ops []model.OpDesc) (units.Seconds, error) {
		var total units.Seconds
		for _, op := range ops {
			d, err := timer.Time(op)
			if err != nil {
				return 0, err
			}
			total += d
		}
		return total, nil
	}
	layerFwd, err := sumTime(fwdOps)
	if err != nil {
		return nil, err
	}
	layerBwd, err := sumTime(bwdOps)
	if err != nil {
		return nil, err
	}
	stageFwd := units.Seconds(float64(layerFwd) * float64(layersPerStage))
	stageBwd := units.Seconds(float64(layerBwd) * float64(layersPerStage))

	p2pSpan := pp.TP * pp.Stages
	path, err := collective.PathForGroup(pp.Cluster, min(p2pSpan, pp.Cluster.TotalDevices()))
	if err != nil {
		return nil, err
	}
	cm, err := collective.NewCostModel(path, pp.Algo)
	if err != nil {
		return nil, err
	}
	sliceBytes := units.Bytes(float64(pp.Model.ActivationBytes()) / float64(pp.TP))
	p2p, err := cm.PointToPoint(sliceBytes)
	if err != nil {
		return nil, err
	}

	var ops []sim.Op
	emit := func(id string, dev int, stream sim.Stream, dur units.Seconds, label string, deps ...string) {
		ops = append(ops, sim.Op{
			ID: id, Device: dev, Stream: stream, Duration: dur,
			Label: label, Deps: deps,
		})
	}

	// Forward phase: micro-batch m enters stage s after (a) stage s
	// finished m's predecessor (in-order stream) and (b) the transfer
	// of m's activations from stage s-1 completed.
	for m := 0; m < pp.MicroBatches; m++ {
		for s := 0; s < pp.Stages; s++ {
			id := fmt.Sprintf("f.s%d.m%d", s, m)
			var deps []string
			if s > 0 {
				send := fmt.Sprintf("p2p.f.s%d.m%d", s-1, m)
				emit(send, s-1, sim.CommStream, p2p, LabelP2P,
					fmt.Sprintf("f.s%d.m%d", s-1, m))
				deps = append(deps, send)
			}
			emit(id, s, sim.ComputeStream, stageFwd, LabelStageFwd, deps...)
		}
	}
	// Backward phase (GPipe: after all forwards): micro-batches return
	// in order through the stages, gradients flowing downward.
	for m := 0; m < pp.MicroBatches; m++ {
		for s := pp.Stages - 1; s >= 0; s-- {
			id := fmt.Sprintf("b.s%d.m%d", s, m)
			deps := []string{fmt.Sprintf("f.s%d.m%d", s, m)}
			if s < pp.Stages-1 {
				send := fmt.Sprintf("p2p.b.s%d.m%d", s+1, m)
				emit(send, s+1, sim.CommStream, p2p, LabelP2P,
					fmt.Sprintf("b.s%d.m%d", s+1, m))
				deps = append(deps, send)
			}
			emit(id, s, sim.ComputeStream, stageBwd, LabelStageBwd, deps...)
		}
	}
	return ops, nil
}

// SimulatePipeline runs the schedule and returns the trace plus the
// measured bubble fraction of the first stage (idle compute time over
// the makespan).
func SimulatePipeline(pp PipelinePlan, timer *Timer) (*sim.Trace, float64, error) {
	ops, err := BuildPipelineSchedule(pp, timer)
	if err != nil {
		return nil, 0, err
	}
	trace, err := runOps(ops, sim.Config{})
	if err != nil {
		return nil, 0, err
	}
	busy := busyTime(trace, 0, sim.ComputeStream)
	bubble := units.Ratio(float64(trace.Makespan-busy), float64(trace.Makespan))
	return trace, bubble, nil
}
