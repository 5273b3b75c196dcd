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

// This file asks the robustness question the paper's healthy-hardware
// analysis leaves open: the Figure 10-13 conclusions assume every link
// and device delivers its nominal rate, but production clusters degrade
// long before they fail — links renegotiate to lower rates, devices
// throttle, per-step jitter accumulates. The degradation study re-prices
// the compute-vs-communication split under such partial failures to see
// how far the comm-fraction conclusions shift.

// DegradationRow is one fault scenario's measured layer split.
type DegradationRow struct {
	Fault          collective.Fault
	Compute        units.Seconds
	SerializedComm units.Seconds
	// CommFraction is serialized communication over the layer total
	// under this fault.
	CommFraction float64
	// DeltaPP is the shift versus the healthy row in percentage points:
	// how far the fault moves the paper's headline metric.
	DeltaPP float64
}

// DefaultFaultScenarios returns the degradation ladder the study and the
// CLI run by default: healthy baseline, two levels of link degradation,
// a throttled straggler rank, accumulated step jitter, and the combined
// worst case.
func DefaultFaultScenarios() []collective.Fault {
	return []collective.Fault{
		collective.Healthy(),
		{Name: "link at 50%", LinkBandwidthFraction: 0.5, StragglerSlowdown: 1},
		{Name: "link at 25%", LinkBandwidthFraction: 0.25, StragglerSlowdown: 1},
		{Name: "straggler 1.5x", LinkBandwidthFraction: 1, StragglerSlowdown: 1.5},
		{Name: "step jitter 10%", LinkBandwidthFraction: 1, StragglerSlowdown: 1, StepJitterFraction: 0.1},
		{Name: "combined", LinkBandwidthFraction: 0.5, StragglerSlowdown: 1.5, StepJitterFraction: 0.1},
	}
}

// measuredSplitWith is MeasuredLayerSplit with an explicit collective
// model, so studies can substitute a faulted (or otherwise altered) ring
// while sharing the substrate's kernel calculator.
func (a *Analyzer) measuredSplitWith(cfg model.Config, tp int, sub *substrate,
	tpModel *collective.CostModel) (compute, serialized units.Seconds, err error) {
	timer := &dist.Timer{
		Calc: sub.calc, TPModel: tpModel, DPModel: tpModel,
		TP: tp, DP: sub.cluster.Node.Count,
	}
	ops, err := model.CachedLayerOps(cfg, tp)
	if err != nil {
		return 0, 0, err
	}
	for _, op := range ops {
		d, err := timer.Time(op)
		if err != nil {
			return 0, 0, err
		}
		if op.Kind == model.TPAllReduce {
			serialized += d
		} else {
			compute += d
		}
	}
	return compute, serialized, nil
}

// DegradationStudy measures the layer compute/serialized-comm split of
// one configuration under each fault scenario, reporting how the comm
// fraction shifts relative to the healthy substrate. Compute kernels run
// on-device and are unaffected by network faults (straggler throttling
// of compute is the simulator's domain — sim.Faults); only the priced
// collectives degrade, which isolates the communication side of the
// paper's two Cs. Scenarios evaluate concurrently under
// Analyzer.Workers, in scenario order; ctx cancels the fan-out.
func (a *Analyzer) DegradationStudy(ctx context.Context, cfg model.Config, tp int,
	evo hw.Evolution, faults []collective.Fault) ([]DegradationRow, error) {
	defer telemetry.Active().Start("core.DegradationStudy").End()
	if len(faults) == 0 {
		return nil, fmt.Errorf("core: no fault scenarios")
	}
	for _, f := range faults {
		if err := f.Validate(); err != nil {
			return nil, err
		}
	}
	sub, err := a.substrateFor(evo)
	if err != nil {
		return nil, err
	}
	// The healthy split anchors every row's DeltaPP; computed once,
	// outside the fan-out.
	hComp, hComm, err := a.MeasuredLayerSplit(cfg, tp, evo)
	if err != nil {
		return nil, err
	}
	healthyFrac := units.Ratio(float64(hComm), float64(hComp+hComm))

	return strict(parallel.Collect(ctx, a.workers(), len(faults),
		func(_ context.Context, i int) (DegradationRow, error) {
			faulted, err := sub.ring.WithFault(faults[i])
			if err != nil {
				return DegradationRow{}, err
			}
			comp, comm, err := a.measuredSplitWith(cfg, tp, sub, faulted)
			if err != nil {
				return DegradationRow{}, err
			}
			frac := units.Ratio(float64(comm), float64(comp+comm))
			return DegradationRow{
				Fault:          faults[i],
				Compute:        comp,
				SerializedComm: comm,
				CommFraction:   frac,
				DeltaPP:        (frac - healthyFrac) * 100,
			}, nil
		}))
}
