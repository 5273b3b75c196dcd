package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"twocs/internal/hw"
	"twocs/internal/model"
	"twocs/internal/parallel"
	"twocs/internal/stream"
	"twocs/internal/telemetry"
	"twocs/internal/units"
)

// This file is the streaming counterpart of the materializing grids in
// sweep.go: the same (evolution × H × SL × TP) space, but rows flow
// into a stream.Sink as chunks complete instead of accumulating in one
// result slice. Peak memory is O(workers × chunk) objective pairs plus
// whatever the sink retains — independent of grid size — which is what
// makes a 10⁶-10⁷ point design-space search practical. The ordering
// contract is unchanged: rows arrive in grid order at any worker
// count, failures surface the lowest-index error after the completed
// prefix was delivered, and cancellation delivers the claimed prefix.
// Either way the sink's Close carries a trailer saying what happened.

// memFootprints returns each task's per-device memory footprint: the
// evolution-independent third objective of a stream row.
func memFootprints(tasks []serializedTask) ([]units.Bytes, error) {
	memModel := model.DefaultMemoryModel()
	out := make([]units.Bytes, len(tasks))
	for i := range tasks {
		mem, err := memModel.PerDevice(tasks[i].cfg, tasks[i].tp)
		if err != nil {
			return nil, err
		}
		out[i] = mem
	}
	return out, nil
}

// setRow makes *r row g of the streamed grid, task t at batch b under
// evo, with objectives iter, frac and mem — NaN for a point the workers
// never computed. It sets each field in place: a Row literal would be
// zeroed and then copied, the struct being too large to build in
// registers.
func setRow(r *stream.Row, g int64, t *serializedTask, b int, evo *hw.Evolution, iter units.Seconds, frac float64, mem units.Bytes) {
	r.Index = g
	r.Evo, r.FlopVsBW = evo.Name, evo.FlopVsBW()
	r.H, r.SL, r.B, r.TP = t.h, t.sl, b, t.tp
	r.IterTime, r.CommFrac, r.MemBytes = iter, frac, mem
}

// objectives are what a stream worker computes for one grid point:
// the two objectives its scenario sets. The third, the memory
// footprint, depends on the task alone.
type objectives struct {
	iter units.Seconds
	frac float64
}

// trailerReason renders a stream-ending error for the trailer row.
func trailerReason(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, context.Canceled):
		return "canceled"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline exceeded"
	default:
		return err.Error()
	}
}

// GridRowCount returns the exact number of rows the streaming evolution
// grid over (hs × sls × tps) at batch b with nEvos scenarios produces.
// This is Points() minus the TP degrees that do not divide their
// configuration: row indices are dense over the *enumerated* tasks,
// not the axis product. It fails with ErrNoRunnablePoints exactly when
// the stream would, without running anything.
func GridRowCount(hs, sls, tps []int, b, nEvos int) (int64, error) {
	if nEvos <= 0 {
		return 0, fmt.Errorf("core: no evolution scenarios")
	}
	tasks, err := enumerateSerialized(hs, sls, tps, b)
	if err != nil {
		return 0, err
	}
	return int64(nEvos) * int64(len(tasks)), nil
}

// StreamEvolutionGridCtx streams the full (evolution × H × SL × TP)
// grid at fixed B into sink, evolution-major in grid order — the same
// point order and values as SerializedEvolutionGridCtx, without ever
// materializing the grid. Each row carries the three search objectives:
// projected iteration time, serialized-communication fraction, and
// per-device memory footprint.
//
// Rows are produced by Analyzer.Workers chunk workers and emitted
// strictly in index order; output through a deterministic sink is
// byte-identical at any worker count. On cancellation or point failure
// the completed prefix is emitted, then the error is returned — after
// sink.Close ran with a trailer recording the row count and the reason,
// so a truncated artifact is well-formed and says it is truncated.
func (a *Analyzer) StreamEvolutionGridCtx(ctx context.Context, hs, sls, tps []int, b int, evos []hw.Evolution, sink stream.Sink) error {
	return a.streamEvolutionGrid(ctx, hs, sls, tps, b, evos, sink, false)
}

// StreamEvolutionGridPartialCtx is StreamEvolutionGridCtx with the PR-4
// best-effort contract extended to streams: when the sweep stops early
// (cancellation, deadline, point failure), every grid point the workers
// never computed is still emitted — with its coordinates and NaN
// objectives, the materializing sweeps' back-fill convention — so the
// artifact always has the full grid shape and downstream joins never
// see a hole. The file sinks serialize such rows as explicit nulls with
// "canceled":true (JSON has no NaN literal) and the reducers skip and
// count them; the trailer's Canceled field totals them. The stream's
// original error is still returned.
func (a *Analyzer) StreamEvolutionGridPartialCtx(ctx context.Context, hs, sls, tps []int, b int, evos []hw.Evolution, sink stream.Sink) error {
	return a.streamEvolutionGrid(ctx, hs, sls, tps, b, evos, sink, true)
}

// streamEvolutionGrid is the shared engine of the strict and partial
// streams.
func (a *Analyzer) streamEvolutionGrid(ctx context.Context, hs, sls, tps []int, b int, evos []hw.Evolution, sink stream.Sink, partial bool) error {
	defer telemetry.Active().Start("core.StreamEvolutionGrid").End()
	if sink == nil {
		return fmt.Errorf("core: nil sink")
	}
	if len(evos) == 0 {
		return fmt.Errorf("core: no evolution scenarios")
	}
	tasks, err := enumerateSerialized(hs, sls, tps, b)
	if err != nil {
		return err
	}
	mem, err := memFootprints(tasks)
	if err != nil {
		return err
	}
	nt := int64(len(tasks))
	total := int64(len(evos)) * nt
	// Live progress bracket: the active tracker (if any) learns the grid
	// size up front and, after the sink's trailer is written, the same
	// completion verdict the artifact carries — so /progress and the
	// trailer tell one story, also for canceled or failed streams.
	pr := telemetry.ActiveProgress()
	pr.Begin("sweep-stream", total)
	priced := a.priceTasks(ctx, tasks)
	evoErrs := validateEvos(evos)
	// Workers return only the two objectives a scenario sets, 16 bytes
	// that travel in registers; the emitter builds each row once, from
	// its index, straight into the sink.
	var rows int64
	streamErr := parallel.StreamCtx(ctx, a.workers(), int(total), 0,
		func(_ context.Context, i int) (objectives, error) {
			e, t := int64(i)/nt, int64(i)%nt
			iter, frac, err := priced[t].project(&evos[e], evoErrs[e])
			return objectives{iter, frac}, err
		},
		func(lo int, vals []objectives) error {
			var r stream.Row
			// Divide once per chunk; (e, t) then step with the index.
			g := int64(lo)
			e, t := g/nt, g%nt
			for k := range vals {
				setRow(&r, g, &tasks[t], b, &evos[e], vals[k].iter, vals[k].frac, mem[t])
				if err := sink.Emit(r); err != nil {
					return err
				}
				g++
				if t++; t == nt {
					e, t = e+1, 0
				}
			}
			rows += int64(len(vals))
			return nil
		})
	// Best-effort back-fill: the computed prefix [0, rows) was
	// already delivered in order; emit the never-computed suffix as
	// coordinate rows with NaN objectives, so the artifact keeps the
	// grid shape. A sink error here stops the back-fill but not the
	// trailer — Close always runs.
	var canceled int64
	if partial && streamErr != nil {
		nan := math.NaN()
		var r stream.Row
		for g := rows; g < total; g++ {
			setRow(&r, g, &tasks[g%nt], b, &evos[g/nt], units.Seconds(nan), nan, units.Bytes(nan))
			if err := sink.Emit(r); err != nil {
				break
			}
			rows++
			canceled++
		}
		// Keep the live tracker in step with the artifact: the back-filled
		// rows were emitted, and /progress must agree with the trailer.
		pr.AddRows(canceled)
	}
	telemetry.Active().Count("core.stream.rows", rows)
	if canceled > 0 {
		telemetry.Active().Count("core.stream.canceled_rows", canceled)
	}
	trailer := stream.Trailer{
		Rows:     rows,
		Total:    total,
		Canceled: canceled,
		Complete: streamErr == nil && rows == total,
		Reason:   trailerReason(streamErr),
	}
	closeErr := sink.Close(trailer)
	pr.Finish(trailer.Complete, trailer.Reason)
	if streamErr != nil {
		return streamErr
	}
	return closeErr
}
