// Package stream is the row-at-a-time consumption layer of the
// million-point design-space search: sinks that receive grid rows in
// deterministic order, file writers (NDJSON, CSV) that serialize them
// without materializing the grid, and online reducers (Pareto frontier,
// top-K heap, per-axis marginals) that keep the interesting 0.01% of a
// 10⁶-10⁷ point sweep without ever holding the rest.
//
// The ordering contract: a producer emits rows in strictly increasing
// Index order, never concurrently, and finishes with exactly one Close
// carrying the stream's trailer — also when the sweep was canceled or
// failed, so a partial artifact is still well-formed and says so.
// core.StreamEvolutionGridCtx satisfies it at any worker count with
// byte-identical output: its workers price the grid's tasks, and one
// loop emits the rows.
package stream

import (
	"fmt"
	"math"

	"twocs/internal/units"
)

// Row is one design-space grid point: its coordinates (hardware
// scenario, model shape, parallelism degree) and the three objectives
// the reducers optimize over — projected iteration time, serialized
// communication fraction, and per-device memory footprint.
type Row struct {
	// Index is the global grid index; producers emit rows in strictly
	// increasing Index order.
	Index int64

	// Evo names the hardware-evolution scenario; FlopVsBW is its
	// compute-vs-network scaling ratio (the paper's x-axis).
	Evo      string
	FlopVsBW float64

	// H, SL, B, TP are the model-shape and parallelism coordinates.
	H, SL, B, TP int

	// IterTime is the projected full-iteration time.
	IterTime units.Seconds
	// CommFrac is serialized communication over total iteration time.
	CommFrac float64
	// MemBytes is the per-device training memory footprint.
	MemBytes units.Bytes
}

// Finite reports whether every objective of the row is a finite number.
// A canceled grid point is back-filled with its coordinates and NaN
// objectives (the PR-4 partial-sweep convention), so !Finite() is the
// streaming layer's definition of "canceled": the file writers serialize
// such rows as explicit nulls and the reducers skip and count them
// instead of letting NaN's all-false comparisons poison their digests.
func (r Row) Finite() bool {
	return !nonFinite(float64(r.IterTime)) &&
		!nonFinite(r.CommFrac) &&
		!nonFinite(float64(r.MemBytes))
}

// nonFinite reports NaN or ±Inf.
func nonFinite(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

// Trailer summarizes a finished stream. Every sink receives it in
// Close, and the file writers serialize it as a final trailer row, so
// a truncated sweep (cancellation, task failure) leaves an artifact
// that is distinguishable from a complete one.
type Trailer struct {
	// Rows is the number of rows emitted; Total the grid size the sweep
	// intended.
	Rows, Total int64
	// Canceled counts emitted rows that were back-filled for grid points
	// the sweep never computed (coordinates with NaN objectives). It is
	// nonzero only for best-effort partial streams; Rows includes them.
	Canceled int64
	// Complete reports Rows == Total with no error and no canceled rows.
	Complete bool
	// Reason is empty for a complete stream, otherwise why it stopped
	// ("canceled", "deadline exceeded", or an error message).
	Reason string
}

// Sink consumes one stream of rows. Emit is called in strictly
// increasing Row.Index order and never concurrently; implementations
// must not retain the row past the call. Close is called exactly once
// after the last Emit, whether or not the stream completed.
type Sink interface {
	Emit(r Row) error
	Close(t Trailer) error
}

// multi fans one stream out to several sinks in order.
type multi struct {
	sinks []Sink
}

// Multi returns a sink that forwards every row and the trailer to each
// of the given sinks in argument order. Emit stops at the first sink
// error (the stream aborts anyway); Close is delivered to every sink
// regardless, returning the first error.
func Multi(sinks ...Sink) Sink {
	return &multi{sinks: sinks}
}

func (m *multi) Emit(r Row) error {
	for _, s := range m.sinks {
		if err := s.Emit(r); err != nil {
			return err
		}
	}
	return nil
}

func (m *multi) Close(t Trailer) error {
	var first error
	for _, s := range m.sinks {
		if err := s.Close(t); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Discard is a Sink that drops every row — the baseline for
// benchmarks and memory-bound tests, and the natural target when only
// the attached reducers matter.
type Discard struct {
	// Rows counts the emitted rows.
	Rows int64
}

// Emit implements Sink.
func (d *Discard) Emit(Row) error {
	d.Rows++
	return nil
}

// Close implements Sink.
func (d *Discard) Close(t Trailer) error {
	if t.Rows != d.Rows {
		return fmt.Errorf("stream: trailer says %d rows, sink saw %d", t.Rows, d.Rows)
	}
	return nil
}
