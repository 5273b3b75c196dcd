package core

import (
	"context"
	"fmt"
	"math"

	"twocs/internal/hw"
	"twocs/internal/model"
	"twocs/internal/parallel"
	"twocs/internal/telemetry"
)

// ZooTimelineRow is one published model's projected communication share
// when trained at the tensor-parallel degree its era's memory forces.
type ZooTimelineRow struct {
	Model string
	Year  int
	// TP is the power-of-two degree used for the projection: the
	// model's representative published degree.
	TP int
	// Fractions at 1x/2x/4x flop-vs-bw hardware.
	Frac1x, Frac2x, Frac4x float64
}

// ZooTimelineCtx projects the serialized-communication share of every zoo
// model at its representative TP degree across the paper's hardware
// scenarios — the "communication's share keeps growing" narrative
// (Sections 1 and 8) as one table over real model history.
//
// Zoo head counts do not all divide their TP degrees (PaLM has 48 heads),
// so each model is projected through its proportional stand-in from
// FutureConfig, preserving H, SL, B and layer count. Models are
// projected concurrently under Analyzer.Workers, in timeline order.
// Once ctx fires the study stops claiming models and returns ctx's
// error.
func (a *Analyzer) ZooTimelineCtx(ctx context.Context, entries []model.ZooEntry) ([]ZooTimelineRow, error) {
	defer telemetry.Active().Start("core.ZooTimeline").End()
	if len(entries) == 0 {
		return nil, fmt.Errorf("core: no models")
	}
	return strict(parallel.Collect(ctx, a.workers(), len(entries), func(_ context.Context, i int) (ZooTimelineRow, error) {
		e := entries[i]
		h := nearestPow2(e.Config.Hidden)
		cfg, err := FutureConfig(h, e.Config.SeqLen, e.Batch)
		if err != nil {
			return ZooTimelineRow{}, err
		}
		cfg.Name = e.Config.Name
		cfg.Layers = e.Config.Layers
		row := ZooTimelineRow{Model: e.Config.Name, Year: e.Year, TP: e.TP}
		if e.TP < 2 {
			return row, nil // single device: no serialized comm
		}
		for _, sc := range []struct {
			ratio float64
			dst   *float64
		}{{1, &row.Frac1x}, {2, &row.Frac2x}, {4, &row.Frac4x}} {
			evo := hw.Identity()
			if sc.ratio > 1 {
				evo = hw.FlopVsBWScenario(sc.ratio)
			}
			p, err := a.SerializedFraction(cfg, e.TP, evo)
			if err != nil {
				return ZooTimelineRow{}, err
			}
			*sc.dst = p.CommFraction()
		}
		return row, nil
	}))
}

// nearestPow2 rounds to the nearest power of two (ties go up), keeping
// the proportional stand-in close to the published width.
func nearestPow2(v int) int {
	if v < 1 {
		return 1
	}
	lg := math.Log2(float64(v))
	return 1 << int(math.Round(lg))
}
