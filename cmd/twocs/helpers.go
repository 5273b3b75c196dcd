package main

import (
	"context"

	"twocs/internal/core"
	"twocs/internal/dist"
	"twocs/internal/hw"
	"twocs/internal/model"
	"twocs/internal/opmodel"
	"twocs/internal/profile"
	"twocs/internal/units"
)

// distEstimates returns the Figure 9b rows.
func distEstimates() ([]dist.TPEstimate, error) {
	return dist.EstimateRequiredTP(model.Zoo())
}

// runValidationSuite runs the five Figure 15 sweeps against the standard
// analyzer baseline.
func runValidationSuite() ([]opmodel.Validation, error) {
	a, err := newAnalyzer()
	if err != nil {
		return nil, err
	}
	truth, err := a.GroundTruthTimer(a.BaseCfg, a.BaseTP, hw.Identity())
	if err != nil {
		return nil, err
	}
	var out []opmodel.Validation
	sweeps := []struct {
		op, name string
		mutate   func(model.Config, int) (model.Config, float64)
	}{
		{"fwd.fc.fc1", "gemm-vs-sl", opmodel.SweepSL},
		{"fwd.fc.fc1", "gemm-vs-h", opmodel.SweepH},
		{"fwd.attn.layernorm", "layernorm-vs-sl", opmodel.SweepSL},
		{"fwd.attn.layernorm", "layernorm-vs-h", opmodel.SweepH},
	}
	for _, s := range sweeps {
		v, err := opmodel.ValidateOpSweep(a.OpModel, truth, s.op, s.name, 4, s.mutate)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	sizes := []units.Bytes{
		units.Bytes(512 * units.KiB), units.Bytes(2 * units.MiB),
		units.Bytes(8 * units.MiB), units.Bytes(32 * units.MiB),
		units.Bytes(128 * units.MiB), units.Bytes(512 * units.MiB),
	}
	v, err := opmodel.ValidateAllReduce(a.OpModel, truth, a.BaseTP, sizes)
	if err != nil {
		return nil, err
	}
	return append(out, v), nil
}

// profilingSpeedup reproduces the §4.3.8 cost comparison: the exhaustive
// ledger prices an end-to-end profiling run of every Table 3 sweep
// configuration (at realistic layer counts), the strategy ledger holds
// what the analyzer actually spent. The second return value is the ROI
// speedup — a full iteration over just its backward pass, the fraction
// ROI extraction avoids executing.
func profilingSpeedup(ctx context.Context) (profile.SpeedupReport, float64, error) {
	a, err := newAnalyzer()
	if err != nil {
		return profile.SpeedupReport{}, 0, err
	}
	// Layer counts grow with width across real models (Table 2: 24
	// layers at H=1K up to ~120 at H=20K); the exhaustive grid prices
	// every configuration at its representative depth, fanned out over
	// the sweep engine.
	exhaustive, err := a.ExhaustiveCostStudyCtx(ctx,
		core.Table3Hs(), core.Table3SLs(), core.Table3TPs(), 1, layersFor)
	if err != nil {
		return profile.SpeedupReport{}, 0, err
	}
	// The strategy side also executes the overlapped-analysis ROIs
	// (§4.2.2 step 2a) — OverlappedSweepCtx charges them to the ledger.
	if _, err := a.OverlappedSweepCtx(ctx, core.Table3Hs(), core.Table3SLs(), 16, hw.Identity()); err != nil {
		return profile.SpeedupReport{}, 0, err
	}
	rep, err := profile.CompareStrategy(exhaustive, a.StrategyLedger)
	if err != nil {
		return profile.SpeedupReport{}, 0, err
	}

	// ROI speedup: iteration time over backward-only time.
	var fwd, total units.Seconds
	for _, r := range a.Baseline.Records {
		total += r.Time
		if r.Op.Phase == model.Forward {
			fwd += r.Time
		}
	}
	roiSpeedup := float64(total) / float64(total-fwd)
	return rep, roiSpeedup, nil
}

// layersFor maps hidden size to a representative depth, following the
// Table 2 trend.
func layersFor(h int) int {
	switch {
	case h <= 1024:
		return 24
	case h <= 2048:
		return 48
	case h <= 4096:
		return 78
	case h <= 8192:
		return 96
	case h <= 16384:
		return 118
	case h <= 32768:
		return 140
	default:
		return 160
	}
}
