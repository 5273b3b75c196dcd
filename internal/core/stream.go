package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"twocs/internal/hw"
	"twocs/internal/model"
	"twocs/internal/stream"
	"twocs/internal/telemetry"
	"twocs/internal/units"
)

// This file is the streaming counterpart of the materializing grids in
// sweep.go: the same (evolution × H × SL × TP) space, but rows flow
// into a stream.Sink as they are projected instead of accumulating in
// one result slice. Peak memory is O(1) rows plus whatever the sink
// retains — independent of grid size — which is what makes a 10⁶-10⁷
// point design-space search practical. The expensive, per-task step,
// pricing each (H, SL, TP) layer, fans out over the analyzer's
// workers before the first row; every row after that is a few ns of
// rescaling, cheaper than handing it between goroutines, so one loop
// on the caller's goroutine projects, builds and emits the rows in
// grid order. Failures surface the lowest-index error after the
// prefix before it was delivered, and cancellation ends the stream at
// a chunk boundary. Either way the sink's Close carries a trailer
// saying what happened.

// streamChunk is the row stream's cancellation and accounting grain:
// the loop consults ctx and advances the live counters once per chunk,
// never per row.
const streamChunk = 512

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

// setRow makes *r row g of the streamed grid, task t at batch b with
// objectives iter, frac and mem — NaN for a point the stream never
// computed. The scenario's fields, Evo and FlopVsBW, are the caller's
// to set: they change once per scenario, not per row. It sets each
// field in place: a Row literal would be zeroed and then copied, the
// struct being too large to build in registers.
func setRow(r *stream.Row, g int64, t *serializedTask, b int, iter units.Seconds, frac float64, mem units.Bytes) {
	r.Index = g
	r.H, r.SL, r.B, r.TP = t.h, t.sl, b, t.tp
	r.IterTime, r.CommFrac, r.MemBytes = iter, frac, mem
}

// setScenario sets *r's scenario fields to evo's.
func setScenario(r *stream.Row, evo *hw.Evolution) {
	r.Evo, r.FlopVsBW = evo.Name, evo.FlopVsBW()
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
// Analyzer.Workers price the grid's tasks in parallel; the rows are
// then projected and emitted in strict index order on the caller's
// goroutine, so output through a deterministic sink is byte-identical
// at any worker count. A point failure emits every row before it, then
// returns its error; a sink error aborts the stream. ctx is consulted
// once per 512-row chunk, before the chunk's first row: a cancel ends
// the stream at the next chunk boundary at any worker count, and a
// context that fires only after the last chunk started is a success.
// Either way the error is returned after sink.Close ran with a trailer
// recording the row count and the reason, so a truncated artifact is
// well-formed and says it is truncated.
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
	rows, streamErr := emitGrid(ctx, priced, mem, b, evos, evoErrs, sink, pr)
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
			setScenario(&r, &evos[g/nt])
			setRow(&r, g, &tasks[g%nt], b, units.Seconds(nan), nan, units.Bytes(nan))
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
	if canceled > 0 {
		tel := telemetry.Active()
		tel.Count("core.stream.rows", canceled)
		tel.Count("core.stream.canceled_rows", canceled)
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

// emitGrid projects, builds and emits the grid's rows in index order,
// scenario by scenario, and returns how many the sink accepted and the
// error that stopped it: the first point failure or sink error, else
// ctx's error if it fired before the last chunk, else nil. It runs on
// the caller's goroutine: the rows' projections are a few ns each,
// less than a handoff to another goroutine would cost.
//
// ctx, the live counters and the trace are touched once per
// streamChunk rows. pr and the core.stream.rows counter advance by
// each chunk's emitted rows; a chunk that ends without error is a
// completed chunk. The loop is worker 0 of the progress tracker, and
// each chunk is one "chunk <c>" span on its trace lane.
func emitGrid(ctx context.Context, priced []pricedTask, mem []units.Bytes, b int,
	evos []hw.Evolution, evoErrs []error, sink stream.Sink, pr *telemetry.Progress) (int64, error) {
	tel := telemetry.Active()
	lane := tel.Lane("stream-worker 0")
	pr.SetWorkers(1)
	nt := int64(len(priced))
	total := int64(len(evos)) * nt
	var (
		r    stream.Row
		g    int64 // next row
		e, t int64 // its scenario and task
	)
	evo, evoErr := &evos[0], evoErrs[0]
	setScenario(&r, evo)
	for c := 0; g < total; c++ {
		if err := ctx.Err(); err != nil {
			return g, err
		}
		sp := lane.StartIndexed("chunk", c)
		lo, hi := g, min(g+streamChunk, total)
		var err error
		for ; g < hi; g++ {
			var iter units.Seconds
			var frac float64
			p := &priced[t]
			if iter, frac, err = p.project(evo, evoErr); err != nil {
				break
			}
			setRow(&r, g, p.serializedTask, b, iter, frac, mem[t])
			if err = sink.Emit(r); err != nil {
				break
			}
			if t++; t == nt && g+1 < total {
				e, t = e+1, 0
				evo, evoErr = &evos[e], evoErrs[e]
				setScenario(&r, evo)
			}
		}
		pr.WorkerBusy(0, sp.End())
		pr.AddRows(g - lo)
		tel.Count("core.stream.rows", g-lo)
		if err != nil {
			return g, err
		}
		pr.ChunkDone()
	}
	return g, nil
}
