package core

import (
	"context"

	"twocs/internal/parallel"
	"twocs/internal/profile"
	"twocs/internal/telemetry"
	"twocs/internal/units"
)

// This file runs the exhaustive side of the paper's §4.3.8 cost
// comparison: pricing an end-to-end profiling run of every Table 3
// sweep configuration, the alternative the single-baseline strategy
// avoids. The grid is embarrassingly parallel, so it runs on the sweep
// engine; the resulting ledger is filled in grid order regardless of
// worker count, keeping its line items deterministic.

// ExhaustiveCostStudyCtx prices an end-to-end profiling run of every
// (H × SL × TP) sweep configuration at fixed B. layersFor maps hidden
// size to a representative depth (real models deepen as they widen,
// Table 2); nil charges each configuration at its own layer count.
// Once ctx fires the sweep stops claiming configurations and the study
// returns ctx's error. A partially priced ledger would misstate the
// exhaustive-profiling cost, so this study is strict, not best-effort.
func (a *Analyzer) ExhaustiveCostStudyCtx(ctx context.Context, hs, sls, tps []int, b int, layersFor func(h int) int) (*profile.Ledger, error) {
	defer telemetry.Active().Start("core.ExhaustiveCostStudy").End()
	tasks, err := enumerateSerialized(hs, sls, tps, b)
	if err != nil {
		return nil, err
	}
	type priced struct {
		name string
		cost units.Seconds
	}
	costs, err := parallel.Collect(ctx, a.workers(), len(tasks), func(_ context.Context, i int) (priced, error) {
		t := tasks[i]
		cfg := t.cfg
		if layersFor != nil {
			cfg.Layers = layersFor(t.h)
		}
		c, err := a.ExhaustiveIterationCost(cfg, t.tp)
		if err != nil {
			return priced{}, err
		}
		return priced{name: cfg.Name, cost: c}, nil
	})
	if err != nil {
		return nil, err
	}
	ledger := profile.NewLedger()
	for _, p := range costs {
		if err := ledger.Add(p.name, p.cost); err != nil {
			return nil, err
		}
	}
	return ledger, nil
}
