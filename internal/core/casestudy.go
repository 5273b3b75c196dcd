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

// This file implements the paper's end-to-end case study (Fig 14):
// serialized (TP) and overlapped (DP) communication combined in one
// simulated iteration of a large futuristic Transformer
// (H=64K, B=1, SL=4K, TP=128, 4× flop-vs-bw), under three scenarios of
// increasing realism for the data-parallel network.

// CaseScenario names one Figure 14 bar.
type CaseScenario struct {
	Name string
	// DPBandwidthFraction scales the DP collective path relative to the
	// intra-node ring (1 = optimistic intra-node, 1/8 = inter-node).
	DPBandwidthFraction float64
	// Interference is the sim slowdown for concurrent compute+comm
	// (1 = none).
	Interference float64
}

// PaperScenariosFig14 returns the three scenarios of Figure 14.
func PaperScenariosFig14() []CaseScenario {
	return []CaseScenario{
		{Name: "intra-node DP, no interference", DPBandwidthFraction: 1, Interference: 1},
		{Name: "inter-node DP (8x slower)", DPBandwidthFraction: 1.0 / 8, Interference: 1},
		{Name: "inter-node DP + interference", DPBandwidthFraction: 1.0 / 8, Interference: 1.3},
	}
}

// CaseResult is one simulated scenario's breakdown.
type CaseResult struct {
	Scenario CaseScenario
	Makespan units.Seconds

	// Fractions of the makespan.
	SerializedCommFrac float64
	ExposedDPFrac      float64
	HiddenDPFrac       float64
	ComputeFrac        float64
}

// CaseStudyCtx simulates one full iteration of cfg at the given TP/DP
// under a hardware evolution, for each scenario. The TP collective
// always uses the optimistic intra-node path (consistent with the
// Figure 10-13 projections); scenarios degrade only the DP path and add
// interference, exactly the §4.3.7 progression. Once ctx fires the
// study stops claiming scenarios and returns ctx's error.
func (a *Analyzer) CaseStudyCtx(ctx context.Context, cfg model.Config, tp, dp int, evo hw.Evolution,
	scenarios []CaseScenario) ([]CaseResult, error) {
	defer telemetry.Active().Start("core.CaseStudy").End()
	if dp < 2 {
		return nil, fmt.Errorf("core: case study needs DP >= 2, got %d", dp)
	}
	if len(scenarios) == 0 {
		return nil, fmt.Errorf("core: no scenarios")
	}
	sub, err := a.substrateFor(evo)
	if err != nil {
		return nil, err
	}
	ec := sub.cluster
	calc, intra, tpModel := sub.calc, sub.ring.Path, sub.ring

	// The case-study plan needs a cluster sized for TP×DP; scenario
	// paths are built directly, so only validation cares.
	nodes := (tp*dp + ec.Node.Count - 1) / ec.Node.Count
	planCluster := ec
	planCluster.NumNodes = nodes
	if nodes > 1 && !planCluster.InterNode.Valid() {
		planCluster.InterNode = hw.Link{
			Bandwidth: units.ByteRate(float64(intra.Bandwidth) / 8),
			Latency:   5 * units.Microsecond,
		}
	}

	// Scenarios simulate concurrently under Analyzer.Workers (they share
	// the memoized substrate) and return in scenario order.
	return strict(parallel.Collect(ctx, a.workers(), len(scenarios), func(_ context.Context, i int) (CaseResult, error) {
		sc := scenarios[i]
		if sc.DPBandwidthFraction <= 0 || sc.Interference < 1 {
			return CaseResult{}, fmt.Errorf("core: invalid scenario %+v", sc)
		}
		dpPath := intra
		dpPath.Bandwidth = units.ByteRate(float64(intra.Bandwidth) * sc.DPBandwidthFraction)
		dpModel, err := collective.NewCostModel(dpPath, collective.Ring)
		if err != nil {
			return CaseResult{}, err
		}
		timer := &dist.Timer{Calc: calc, TPModel: tpModel, DPModel: dpModel, TP: tp, DP: dp}
		plan := dist.Plan{Model: cfg, TP: tp, DP: dp, Cluster: planCluster, Algo: collective.Ring}
		rep, err := dist.RunIteration(plan, timer, dist.ScheduleOptions{
			InterferenceSlowdown: sc.Interference,
		})
		if err != nil {
			return CaseResult{}, err
		}
		mk := float64(rep.Makespan)
		hidden := float64(rep.DPCommTime - rep.ExposedDPComm)
		return CaseResult{
			Scenario:           sc,
			Makespan:           rep.Makespan,
			SerializedCommFrac: units.Ratio(float64(rep.ExposedTPComm), mk),
			ExposedDPFrac:      units.Ratio(float64(rep.ExposedDPComm), mk),
			HiddenDPFrac:       units.Ratio(hidden, mk),
			ComputeFrac:        units.Ratio(float64(rep.ComputeTime), mk),
		}, nil
	}))
}
