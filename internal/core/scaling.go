package core

import (
	"context"
	"fmt"

	"twocs/internal/collective"
	"twocs/internal/dist"
	"twocs/internal/hw"
	"twocs/internal/model"
	"twocs/internal/parallel"
	"twocs/internal/telemetry"
	"twocs/internal/units"
)

// ScalingRow is one way of splitting a fixed device budget between
// tensor and data parallelism.
type ScalingRow struct {
	TP, DP   int
	Makespan units.Seconds
	// TokensPerSec is global training throughput: DP·B·SL tokens per
	// iteration over the simulated iteration time.
	TokensPerSec float64
	// CommFraction is the exposed-communication share of the iteration.
	CommFraction float64
}

// ScalingStudyCtx simulates full iterations for every way of factoring
// `devices` into TP×DP (TP from tps that divide the budget and the
// model), quantifying the throughput cost of tensor parallelism: every
// doubling of TP trades data-parallel throughput for serialized
// communication — the system-level consequence of the paper's edge
// erosion (§2.4: communication "limits throughput scaling with
// increasing device count"). Feasible splits are simulated concurrently
// under Analyzer.Workers, sharing the memoized substrate, and returned
// in ascending-TP order. Once ctx fires the study stops claiming TP×DP
// splits and returns ctx's error.
func (a *Analyzer) ScalingStudyCtx(ctx context.Context, cfg model.Config, devices int, tps []int, evo hw.Evolution) ([]ScalingRow, error) {
	defer telemetry.Active().Start("core.ScalingStudy").End()
	if devices < 2 {
		return nil, fmt.Errorf("core: scaling study needs >=2 devices, got %d", devices)
	}
	if len(tps) == 0 {
		return nil, fmt.Errorf("core: no TP degrees to study")
	}
	sub, err := a.substrateFor(evo)
	if err != nil {
		return nil, err
	}
	ec := sub.cluster
	intra := sub.ring.Path

	// Hoist the skip-vs-run decisions: cfg validates once, each TP
	// candidate only needs the budget and divisibility checks.
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var cands []int
	for _, tp := range tps {
		if devices%tp != 0 {
			continue
		}
		if dp := devices / tp; dp < 2 || !cfg.TPDivides(tp) {
			continue
		}
		cands = append(cands, tp)
	}

	planCluster := ec
	planCluster.NumNodes = (devices + ec.Node.Count - 1) / ec.Node.Count
	if planCluster.NumNodes > 1 && !planCluster.InterNode.Valid() {
		planCluster.InterNode = hw.Link{
			Bandwidth: units.ByteRate(float64(intra.Bandwidth) / 8),
			Latency:   5 * units.Microsecond,
		}
	}

	out, err := parallel.Collect(ctx, a.workers(), len(cands), func(_ context.Context, i int) (ScalingRow, error) {
		tp := cands[i]
		dp := devices / tp
		timer := &dist.Timer{Calc: sub.calc, TPModel: sub.ring, DPModel: sub.ring, TP: tp, DP: dp}
		plan := dist.Plan{Model: cfg, TP: tp, DP: dp, Cluster: planCluster, Algo: collective.Ring}
		rep, err := dist.RunIteration(plan, timer, dist.ScheduleOptions{})
		if err != nil {
			return ScalingRow{}, err
		}
		tokens := float64(dp) * float64(cfg.Batch) * float64(cfg.SeqLen)
		return ScalingRow{
			TP: tp, DP: dp,
			Makespan:     rep.Makespan,
			TokensPerSec: tokens / float64(rep.Makespan),
			CommFraction: rep.TotalCommFraction(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("core: no feasible TP×DP split of %d devices", devices)
	}
	return out, nil
}
