package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"

	"twocs/internal/hw"
	"twocs/internal/model"
	"twocs/internal/opmodel"
	"twocs/internal/parallel"
	"twocs/internal/telemetry"
	"twocs/internal/tensor"
	"twocs/internal/units"
)

// This file encodes the paper's Table 3 sweep space and runs the
// Figure 10-13 grids over it. All grids execute on the bounded
// worker-pool sweep engine (internal/parallel): points are evaluated
// concurrently under Analyzer.Workers but emitted in grid order, so the
// output is byte-identical to the sequential loop at any worker count.

// Table3Hs returns the hidden-dimension sweep: 1K..64K.
func Table3Hs() []int { return []int{1024, 2048, 4096, 8192, 16384, 32768, 65536} }

// Table3SLs returns the sequence-length sweep: 1K..8K.
func Table3SLs() []int { return []int{1024, 2048, 4096, 8192} }

// Table3Bs returns the batch sweep: {1, 4}.
func Table3Bs() []int { return []int{1, 4} }

// Table3TPs returns the tensor-parallel-degree sweep: 4..256.
func Table3TPs() []int { return []int{4, 8, 16, 32, 64, 128, 256} }

// FutureConfig builds a future-Transformer configuration for sweep
// points: proportional architecture (FC=4H, head dim 128) with a single
// layer — the serialized-communication fraction is layer-count-invariant,
// so per-layer analysis suffices for the sweep metrics.
func FutureConfig(h, sl, b int) (model.Config, error) {
	c := model.Config{
		Name:   futureName(h, sl, b),
		Kind:   model.Decoder,
		Layers: 1,
		Hidden: h, FCDim: 4 * h, Heads: h / 64,
		Vocab:  50_000,
		SeqLen: sl, Batch: b,
		DT: tensor.FP32,
	}
	if err := c.Validate(); err != nil {
		return model.Config{}, err
	}
	return c, nil
}

// futureName returns FutureConfig's "future-H<h>-SL<sl>-B<b>" name in
// one allocation, the string itself: fmt.Sprintf would also box h and
// sl, and a grid builds one name per (H, SL) pair.
func futureName(h, sl, b int) string {
	var buf [80]byte
	n := append(buf[:0], "future-H"...)
	n = strconv.AppendInt(n, int64(h), 10)
	n = append(n, "-SL"...)
	n = strconv.AppendInt(n, int64(sl), 10)
	n = append(n, "-B"...)
	n = strconv.AppendInt(n, int64(b), 10)
	return string(n)
}

// serializedTask is one runnable (configuration, TP) grid point. The
// configuration is built and validated once per (H, SL) pair — not once
// per TP degree — and the TP divisibility skip decision is taken during
// enumeration, so workers only ever see points that will run.
type serializedTask struct {
	cfg   model.Config
	h, sl int
	tp    int
}

// ErrNoRunnablePoints reports a grid none of whose points can run: no
// TP degree divides any (H, SL) configuration, or an axis is empty. It
// describes the request, not a failure of the analysis, so callers that
// answer clients (twocsd) map it to a client error.
var ErrNoRunnablePoints = errors.New("core: no runnable grid point")

// enumerateSerialized expands the (H × SL × TP) grid into runnable
// tasks, hoisting FutureConfig construction and validation out of the
// inner TP loop. TP degrees that do not divide a configuration are
// skipped here, as the paper skips its unrealistic configurations; a
// grid left with no task is ErrNoRunnablePoints.
func enumerateSerialized(hs, sls, tps []int, b int) ([]serializedTask, error) {
	tasks := make([]serializedTask, 0, len(hs)*len(sls)*len(tps))
	for _, h := range hs {
		for _, sl := range sls {
			cfg, err := FutureConfig(h, sl, b)
			if err != nil {
				return nil, err
			}
			for _, tp := range tps {
				if !cfg.TPDivides(tp) {
					continue
				}
				tasks = append(tasks, serializedTask{cfg: cfg, h: h, sl: sl, tp: tp})
			}
		}
	}
	if len(tasks) == 0 {
		return nil, fmt.Errorf("%w: empty serialized sweep", ErrNoRunnablePoints)
	}
	return tasks, nil
}

// SerializedPoint is one Figure 10/12 grid sample.
type SerializedPoint struct {
	H, SL, B, TP int
	FlopVsBW     float64
	// Fraction is serialized communication over total iteration time.
	Fraction float64
}

// serializedPoint is grid task t at batch b under evo with serialized
// fraction frac — NaN for a point a best-effort sweep never computed.
// Every materialized serialized grid builds its points here.
func serializedPoint(t *serializedTask, b int, evo *hw.Evolution, frac float64) SerializedPoint {
	return SerializedPoint{
		H: t.h, SL: t.sl, B: b, TP: t.tp,
		FlopVsBW: evo.FlopVsBW(),
		Fraction: frac,
	}
}

// pricedTask is a grid task, pointing into the grid's enumerated task
// list, with its per-layer projection. A hardware scenario only
// rescales that projection (LayerProjection.Scale), so a serialized
// grid prices each task once and every (scenario, task) point costs
// two multiplies. err is the pricing failure, reported at the first
// point that uses the task.
type pricedTask struct {
	*serializedTask
	layer opmodel.LayerProjection
	err   error
}

// priceTasks prices every task of a serialized grid through the
// memoized OpModel.ProjectLayer, spreading cold misses over the
// analyzer's workers. Failures are kept per task, not returned, so each
// surfaces where SerializedFraction would have raised it.
//
// Pricing is setup, not grid points: it stops once ctx is done but
// never asks ctx.Err, leaving every Err poll to the grid's own claim
// loop, so a cancel lands at the same point as when each point priced
// itself. A stopped pricing (ctx, or a contained panic naming the task
// index) marks the unpriced tasks with its cause; after a cancel the
// grid, consulting the same done ctx, stops before using them.
func (a *Analyzer) priceTasks(ctx context.Context, tasks []serializedTask) []pricedTask {
	done := ctx.Done()
	priced, cause := parallel.Collect(context.WithoutCancel(ctx), a.workers(), len(tasks),
		func(_ context.Context, i int) (pricedTask, error) {
			select {
			case <-done:
				return pricedTask{}, ctx.Err()
			default:
			}
			t := &tasks[i]
			layer, err := a.OpModel.ProjectLayer(t.cfg, t.tp)
			return pricedTask{serializedTask: t, layer: layer, err: err}, nil
		})
	for i := len(priced); i < len(tasks); i++ {
		priced = append(priced, pricedTask{serializedTask: &tasks[i], err: cause})
	}
	return priced
}

// validateEvos validates each scenario once per grid call; a failure
// is reported at the scenario's first point.
func validateEvos(evos []hw.Evolution) []error {
	errs := make([]error, len(evos))
	for i := range evos {
		errs[i] = evos[i].Validate()
	}
	return errs
}

// project is task p under scenario evo, whose Validate error is evoErr:
// SerializedFraction's checks in its order and its bits (Total and
// CommFraction of the Scale'd split), without its memo lookup.
func (p *pricedTask) project(evo *hw.Evolution, evoErr error) (iter units.Seconds, frac float64, err error) {
	if evoErr != nil {
		return 0, 0, evoErr
	}
	if p.err != nil {
		return 0, 0, p.err
	}
	compute, comm := p.layer.Scale(float64(p.cfg.Layers), *evo)
	iter = compute + comm
	return iter, units.Ratio(float64(comm), float64(iter)), nil
}

// backfill completes a best-effort grid from the prefix the workers
// finished: every point after it is nan(i) — its grid coordinates with
// NaN objectives — so renderers can name the points that are missing.
// A stopped grid reports a *parallel.PartialError whose Done is the
// prefix length.
func backfill[T any](done []T, n int, cause error, nan func(i int) T) ([]T, error) {
	if cause == nil {
		return done, nil
	}
	out := done
	for i := len(done); i < n; i++ {
		out = append(out, nan(i))
	}
	return out, &parallel.PartialError{Cause: cause, Done: len(done)}
}

// strict drops the completed prefix of a study that stopped early:
// its rows are only meaningful complete.
func strict[T any](out []T, err error) ([]T, error) {
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SerializedSweepCtx projects the serialized-communication fraction
// over the (H × SL × TP) grid at fixed B under one hardware scenario —
// the paper's 196-configuration projection from a single baseline
// (§4.2.4). Points are projected concurrently under Analyzer.Workers
// and returned in grid order.
//
// The sweep is best-effort: it stops claiming grid points once ctx
// fires, and instead of discarding a partially completed grid it
// returns the full-length point slice plus a *parallel.PartialError.
// The points [0, Done) are complete; every later one keeps its grid
// coordinates (H, SL, B, TP, FlopVsBW) so renderers can name it, with
// Fraction set to NaN. A point failure stops the grid the same way,
// its error the one the sequential loop would have hit.
func (a *Analyzer) SerializedSweepCtx(ctx context.Context, hs, sls, tps []int, b int, evo hw.Evolution) ([]SerializedPoint, error) {
	defer telemetry.Active().Start("core.SerializedSweep").End()
	tasks, err := enumerateSerialized(hs, sls, tps, b)
	if err != nil {
		return nil, err
	}
	priced := a.priceTasks(ctx, tasks)
	evoErr := evo.Validate()
	done, err := parallel.Collect(ctx, a.workers(), len(priced),
		func(_ context.Context, i int) (SerializedPoint, error) {
			p := &priced[i]
			_, frac, err := p.project(&evo, evoErr)
			if err != nil {
				return SerializedPoint{}, err
			}
			return serializedPoint(p.serializedTask, b, &evo, frac), nil
		})
	return backfill(done, len(tasks), err, func(i int) SerializedPoint {
		return serializedPoint(&tasks[i], b, &evo, math.NaN())
	})
}

// SerializedEvolutionGridCtx runs the Figure 12 study: the full
// serialized sweep at every hardware-evolution scenario, pricing each
// (H, SL, TP) task once and rescaling it per scenario across the whole
// (evolution × H × SL × TP) space. Results are ordered scenario-major,
// each scenario's points in grid order. Once ctx fires the grid stops
// claiming points and returns ctx's error (strict — scenario slices
// are only meaningful complete).
func (a *Analyzer) SerializedEvolutionGridCtx(ctx context.Context, hs, sls, tps []int, b int, evos []hw.Evolution) ([][]SerializedPoint, error) {
	defer telemetry.Active().Start("core.SerializedEvolutionGrid").End()
	if len(evos) == 0 {
		return nil, fmt.Errorf("core: no evolution scenarios")
	}
	tasks, err := enumerateSerialized(hs, sls, tps, b)
	if err != nil {
		return nil, err
	}
	priced := a.priceTasks(ctx, tasks)
	evoErrs := validateEvos(evos)
	flat, err := parallel.Collect(ctx, a.workers(), len(evos)*len(priced), func(_ context.Context, i int) (SerializedPoint, error) {
		e, p := i/len(priced), &priced[i%len(priced)]
		_, frac, err := p.project(&evos[e], evoErrs[e])
		if err != nil {
			return SerializedPoint{}, err
		}
		return serializedPoint(p.serializedTask, b, &evos[e], frac), nil
	})
	if err != nil {
		return nil, err
	}
	out := make([][]SerializedPoint, len(evos))
	for i := range evos {
		out[i] = flat[i*len(tasks) : (i+1)*len(tasks)]
	}
	return out, nil
}

// OverlappedPoint is one Figure 11/13 grid sample.
type OverlappedPoint struct {
	H, SLB   int
	FlopVsBW float64
	// Percent is overlapped communication as a percentage of the
	// backprop compute available to hide it (>=100 means exposed).
	Percent float64
}

// OverlappedSweepCtx measures ROI overlap percentages over an
// (H × SL·B) grid at fixed TP under one hardware scenario. B is folded
// into SL·B by holding B=1 and sweeping SL — the reduction the
// algorithmic analysis licenses (slack = O(SL·B), §4.2.1). ROIs execute
// concurrently under Analyzer.Workers; the ledger totals are
// order-independent, and the returned points are in grid order.
//
// The sweep is best-effort like SerializedSweepCtx: a canceled or
// failing sweep returns the full grid plus a *parallel.PartialError,
// the points from Done on keeping their grid coordinates with Percent
// set to NaN.
func (a *Analyzer) OverlappedSweepCtx(ctx context.Context, hs, slbs []int, tp int, evo hw.Evolution) ([]OverlappedPoint, error) {
	defer telemetry.Active().Start("core.OverlappedSweep").End()
	// The (H × SL·B) grid at one TP degree is the serialized grid at
	// B = 1 with SL·B as its SL axis.
	tasks, err := enumerateSerialized(hs, slbs, []int{tp}, 1)
	if err != nil {
		return nil, err
	}
	done, err := parallel.Collect(ctx, a.workers(), len(tasks),
		func(_ context.Context, i int) (OverlappedPoint, error) {
			t := tasks[i]
			pct, err := a.OverlappedPercent(t.cfg, t.tp, evo)
			if err != nil {
				return OverlappedPoint{}, err
			}
			return OverlappedPoint{
				H: t.h, SLB: t.sl, FlopVsBW: evo.FlopVsBW(), Percent: pct,
			}, nil
		})
	return backfill(done, len(tasks), err, func(i int) OverlappedPoint {
		return OverlappedPoint{
			H: tasks[i].h, SLB: tasks[i].sl, FlopVsBW: evo.FlopVsBW(), Percent: math.NaN(),
		}
	})
}

// SweepConfigCount returns the number of distinct (H, SL, TP) projections
// the Table 3 grid contains — the paper's "~196 different Transformer
// models" the strategy avoids executing (7 H × 4 SL × 7 TP).
func SweepConfigCount() int {
	return len(Table3Hs()) * len(Table3SLs()) * len(Table3TPs())
}
