package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"twocs/internal/hw"
	"twocs/internal/stream"
)

// collectSink records every row and the trailer.
type collectSink struct {
	rows    []stream.Row
	trailer stream.Trailer
	closed  int
}

func (c *collectSink) Emit(r stream.Row) error { c.rows = append(c.rows, r); return nil }
func (c *collectSink) Close(t stream.Trailer) error {
	c.trailer = t
	c.closed++
	return nil
}

// TestStreamGridMatchesMaterialized: the streamed rows must carry
// exactly the values the materializing grid computes, in the same
// evolution-major order, with contiguous indexes.
func TestStreamGridMatchesMaterialized(t *testing.T) {
	a := newAnalyzer(t)
	hs, sls, tps := smallGrid()
	b := 1
	evos := hw.PaperScenarios()

	want, err := a.SerializedEvolutionGridCtx(context.Background(), hs, sls, tps, b, evos)
	if err != nil {
		t.Fatalf("materialized grid: %v", err)
	}
	var sink collectSink
	if err := a.StreamEvolutionGridCtx(context.Background(), hs, sls, tps, b, evos, &sink); err != nil {
		t.Fatalf("streamed grid: %v", err)
	}

	perEvo := len(want[0])
	if len(sink.rows) != len(evos)*perEvo {
		t.Fatalf("streamed %d rows, want %d", len(sink.rows), len(evos)*perEvo)
	}
	if sink.closed != 1 {
		t.Fatalf("Close called %d times", sink.closed)
	}
	if !sink.trailer.Complete || sink.trailer.Rows != int64(len(sink.rows)) ||
		sink.trailer.Total != int64(len(sink.rows)) || sink.trailer.Reason != "" {
		t.Fatalf("bad trailer: %+v", sink.trailer)
	}
	for i, r := range sink.rows {
		if r.Index != int64(i) {
			t.Fatalf("row %d has index %d", i, r.Index)
		}
		w := want[i/perEvo][i%perEvo]
		if r.H != w.H || r.SL != w.SL || r.B != w.B || r.TP != w.TP {
			t.Fatalf("row %d coordinates diverged: %+v vs %+v", i, r, w)
		}
		if math.Abs(r.CommFrac-w.Fraction) > 0 {
			t.Fatalf("row %d comm fraction %v, materialized %v", i, r.CommFrac, w.Fraction)
		}
		if math.Abs(r.FlopVsBW-w.FlopVsBW) > 0 {
			t.Fatalf("row %d flop-vs-bw %v, materialized %v", i, r.FlopVsBW, w.FlopVsBW)
		}
		if r.IterTime <= 0 || r.MemBytes <= 0 {
			t.Fatalf("row %d has non-positive objectives: %+v", i, r)
		}
		if r.Evo != evos[i/perEvo].Name {
			t.Fatalf("row %d evo %q, want %q", i, r.Evo, evos[i/perEvo].Name)
		}
	}
}

// TestStreamGridWorkerInvariance: NDJSON output must be byte-identical
// at any worker count — the sequential-equivalence contract extended
// through the sink.
func TestStreamGridWorkerInvariance(t *testing.T) {
	hs, sls, tps := smallGrid()
	b := 1
	evos := hw.PaperScenarios()
	var golden []byte
	for _, workers := range []int{1, 2, 4, 7} {
		a := newAnalyzer(t)
		a.Workers = workers
		var buf bytes.Buffer
		if err := a.StreamEvolutionGridCtx(context.Background(), hs, sls, tps, b, evos,
			stream.NewNDJSON(&buf)); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if golden == nil {
			golden = buf.Bytes()
			continue
		}
		if !bytes.Equal(golden, buf.Bytes()) {
			t.Fatalf("workers=%d produced different bytes than workers=1", workers)
		}
	}
}

// cancelAfterSink cancels the context after n rows.
type cancelAfterSink struct {
	collectSink
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfterSink) Emit(r stream.Row) error {
	if err := c.collectSink.Emit(r); err != nil {
		return err
	}
	if len(c.rows) == c.n {
		c.cancel()
	}
	return nil
}

// TestStreamGridCancel: a canceled stream delivers a contiguous prefix
// and a trailer that says it is incomplete and why. The stream finishes
// the chunk in which the cancel fires, so the grid must span more than
// one chunk: it uses many evolution scenarios over the small task grid.
func TestStreamGridCancel(t *testing.T) {
	a := newAnalyzer(t)
	a.Workers = 4
	hs, sls, tps := smallGrid()
	b := 1
	evos := make([]hw.Evolution, 300)
	for i := range evos {
		evos[i] = hw.FlopVsBWScenario(1 + float64(i)*0.01)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &cancelAfterSink{n: 5, cancel: cancel}
	err := a.StreamEvolutionGridCtx(ctx, hs, sls, tps, b, evos, sink)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(sink.rows) < sink.n {
		t.Fatalf("only %d rows before cancel took effect", len(sink.rows))
	}
	for i, r := range sink.rows {
		if r.Index != int64(i) {
			t.Fatalf("canceled stream has a gap: row %d carries index %d", i, r.Index)
		}
	}
	if sink.closed != 1 {
		t.Fatalf("Close called %d times", sink.closed)
	}
	tr := sink.trailer
	if tr.Complete || tr.Reason != "canceled" || tr.Rows != int64(len(sink.rows)) ||
		tr.Rows >= tr.Total {
		t.Fatalf("bad cancel trailer: %+v", tr)
	}
}

// TestStreamGridCancelAtChunkBoundary pins where a cancel ends the
// stream: a sink that cancels ctx at row k gets every row of k's chunk
// and no row after it, min(total, (k/512+1)·512) computed rows, for the
// strict and the partial stream alike and at any worker count — the
// loop consults ctx once per chunk, before the chunk's first row. The
// canceled run's NDJSON bytes are the same at 1 and 4 workers.
func TestStreamGridCancelAtChunkBoundary(t *testing.T) {
	hs, sls, tps := smallGrid()
	evos := manyEvos(300) // 3,000 rows: 5 full chunks and one of 440
	for _, k := range []int64{0, 4, 511, 512, 1000, 2999} {
		for _, partial := range []bool{false, true} {
			var golden []byte
			for _, workers := range []int{1, 4} {
				a := newAnalyzer(t)
				a.Workers = workers
				ctx, cancel := context.WithCancel(context.Background())
				var rows collectSink
				var buf bytes.Buffer
				sink := &cancelForwardSink{
					inner:  stream.Multi(stream.NewNDJSON(&buf), &rows),
					n:      int(k + 1),
					cancel: cancel,
				}
				streamGrid := a.StreamEvolutionGridCtx
				if partial {
					streamGrid = a.StreamEvolutionGridPartialCtx
				}
				err := streamGrid(ctx, hs, sls, tps, 1, evos, sink)
				cancel()
				total := rows.trailer.Total
				want := min(total, (k/streamChunk+1)*streamChunk)
				name := fmt.Sprintf("k=%d partial=%v workers=%d", k, partial, workers)
				if want == total {
					if err != nil || !rows.trailer.Complete {
						t.Fatalf("%s: cancel in the last chunk: err %v, trailer %+v; want a complete stream",
							name, err, rows.trailer)
					}
				} else if !errors.Is(err, context.Canceled) {
					t.Fatalf("%s: err = %v, want context.Canceled", name, err)
				}
				var computed int64
				for i, r := range rows.rows {
					if r.Index != int64(i) {
						t.Fatalf("%s: row %d carries index %d", name, i, r.Index)
					}
					if r.Finite() {
						computed++
					}
				}
				if computed != want {
					t.Fatalf("%s: %d computed rows, want %d", name, computed, want)
				}
				emitted := want
				if partial {
					emitted = total
				}
				if tr := rows.trailer; int64(len(rows.rows)) != emitted || tr.Rows != emitted || tr.Canceled != emitted-want {
					t.Fatalf("%s: %d rows emitted, trailer %+v; want %d rows, %d canceled",
						name, len(rows.rows), tr, emitted, emitted-want)
				}
				if golden == nil {
					golden = buf.Bytes()
				} else if !bytes.Equal(golden, buf.Bytes()) {
					t.Fatalf("%s: NDJSON differs from workers=1", name)
				}
			}
		}
	}
}

// errCountCtx counts the Err calls made on it.
type errCountCtx struct {
	context.Context
	errs atomic.Int64
}

func (c *errCountCtx) Err() error {
	c.errs.Add(1)
	return c.Context.Err()
}

// TestStreamGridPollsCtxPerChunk: the row loop consults ctx at most
// once per chunk, never per row, at any worker count.
func TestStreamGridPollsCtxPerChunk(t *testing.T) {
	hs, sls, tps := smallGrid()
	evos := manyEvos(300)
	for _, workers := range []int{1, 4} {
		a := newAnalyzer(t)
		a.Workers = workers
		ctx := &errCountCtx{Context: context.Background()}
		var sink stream.Discard
		if err := a.StreamEvolutionGridCtx(ctx, hs, sls, tps, 1, evos, &sink); err != nil {
			t.Fatal(err)
		}
		chunks := (sink.Rows + streamChunk - 1) / streamChunk
		if n := ctx.errs.Load(); n > chunks {
			t.Fatalf("workers=%d: %d ctx.Err calls over %d rows, want at most one per chunk (%d)",
				workers, n, sink.Rows, chunks)
		}
	}
}

// failSink fails Emit at a chosen row.
type failSink struct {
	collectSink
	failAt int64
}

func (f *failSink) Emit(r stream.Row) error {
	if r.Index == f.failAt {
		return fmt.Errorf("sink full")
	}
	return f.collectSink.Emit(r)
}

// TestStreamGridSinkError: a sink write error aborts the sweep, and the
// trailer still arrives carrying the reason.
func TestStreamGridSinkError(t *testing.T) {
	a := newAnalyzer(t)
	hs, sls, tps := smallGrid()
	b := 1
	sink := &failSink{failAt: 7}
	err := a.StreamEvolutionGridCtx(context.Background(), hs, sls, tps, b, hw.PaperScenarios(), sink)
	if err == nil || err.Error() != "sink full" {
		t.Fatalf("err = %v, want the sink error", err)
	}
	if got := int64(len(sink.rows)); got != 7 {
		t.Fatalf("%d rows delivered before the failing write, want 7", got)
	}
	if sink.closed != 1 || sink.trailer.Complete || sink.trailer.Reason != "sink full" {
		t.Fatalf("bad trailer after sink error: %+v (closed %d)", sink.trailer, sink.closed)
	}
}

// TestGridRowCount: the exact row count equals what the full stream
// actually emits — the TP-divisibility skips make it smaller than the
// axis product.
func TestGridRowCount(t *testing.T) {
	a := newAnalyzer(t)
	hs, sls, tps := smallGrid()
	evos := hw.PaperScenarios()

	total, err := GridRowCount(hs, sls, tps, 1, len(evos))
	if err != nil {
		t.Fatal(err)
	}
	var sink collectSink
	if err := a.StreamEvolutionGridCtx(context.Background(), hs, sls, tps, 1, evos, &sink); err != nil {
		t.Fatal(err)
	}
	if total != int64(len(sink.rows)) {
		t.Fatalf("GridRowCount = %d, stream emitted %d rows", total, len(sink.rows))
	}
	product := int64(len(hs)) * int64(len(sls)) * int64(len(tps)) * int64(len(evos))
	if total >= product {
		t.Fatalf("count %d should be below the axis product %d (TP skips)", total, product)
	}
	if _, err := GridRowCount(hs, sls, tps, 1, 0); err == nil {
		t.Fatal("zero scenarios must error")
	}
}

// TestStreamGridArgErrors covers the argument failures.
func TestStreamGridArgErrors(t *testing.T) {
	a := newAnalyzer(t)
	hs, sls, tps := smallGrid()
	b := 1
	if err := a.StreamEvolutionGridCtx(context.Background(), hs, sls, tps, b, hw.PaperScenarios(), nil); err == nil {
		t.Fatal("nil sink accepted")
	}
	var sink collectSink
	if err := a.StreamEvolutionGridCtx(context.Background(), hs, sls, tps, b, nil, &sink); err == nil {
		t.Fatal("empty evolution list accepted")
	}
	if err := a.StreamEvolutionGridCtx(context.Background(), nil, nil, nil, b, hw.PaperScenarios(), &sink); !errors.Is(err, ErrNoRunnablePoints) {
		t.Fatalf("empty grid: err %v, want ErrNoRunnablePoints", err)
	}
	if _, err := GridRowCount([]int{1024}, []int{1024}, []int{7}, b, 1); !errors.Is(err, ErrNoRunnablePoints) {
		t.Fatalf("all-skipped row count: err %v, want ErrNoRunnablePoints", err)
	}
}

// TestStreamGridMillionPoints is the tentpole acceptance test: a 10⁶+
// point evolution grid streams to NDJSON with reducers attached, and
// the retained heap stays bounded — far below what materializing the
// grid would take — while the trailer confirms every point arrived.
func TestStreamGridMillionPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("million-point stream takes tens of seconds; run without -short")
	}
	a := newAnalyzer(t)
	hs, sls, tps := Table3Hs(), Table3SLs(), Table3TPs()
	b := 1
	tasks, err := enumerateSerialized(hs, sls, tps, b)
	if err != nil {
		t.Fatal(err)
	}
	nEvos := 1_000_000/len(tasks) + 1
	evos := make([]hw.Evolution, nEvos)
	for i := range evos {
		evos[i] = hw.FlopVsBWScenario(1 + float64(i)*0.001)
	}
	total := int64(nEvos) * int64(len(tasks))
	if total < 1_000_000 {
		t.Fatalf("grid too small: %d", total)
	}

	topk, err := stream.NewTopK(16)
	if err != nil {
		t.Fatal(err)
	}
	pareto := stream.NewPareto()
	marginals := stream.NewMarginals()
	nd := stream.NewNDJSON(io.Discard)
	var count stream.Discard
	sink := stream.Multi(nd, pareto, topk, marginals, &count)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := a.StreamEvolutionGridCtx(context.Background(), hs, sls, tps, b, evos, sink); err != nil {
		t.Fatalf("stream: %v", err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)

	if count.Rows != total {
		t.Fatalf("streamed %d rows, want %d", count.Rows, total)
	}
	// Materializing this grid would hold total × sizeof(Row) ≈ 100+ MB.
	// The streaming path retains only the reducers' digests and
	// per-worker chunk buffers; allow generous slack for the evolution
	// slice and test harness noise and still sit an order of magnitude
	// below materialization.
	const heapBudget = 32 << 20
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > heapBudget {
		t.Fatalf("heap grew %d bytes across a %d-point stream; budget %d", grew, total, heapBudget)
	}
	if got := len(topk.Best()); got != 16 {
		t.Fatalf("top-k kept %d rows", got)
	}
	if pareto.Size() == 0 {
		t.Fatal("empty Pareto frontier")
	}
	for _, ax := range marginals.Axes() {
		var n int64
		for _, v := range ax.Values {
			n += v.Count
		}
		if n != total {
			t.Fatalf("axis %s accounts for %d of %d rows", ax.Axis, n, total)
		}
	}
}

// BenchmarkStreamEvolutionGrid is the grid-engine rung of the stream
// cost ladder: the Table-3 grid (B=1) under 1000 flop-vs-bw scenarios,
// 156k rows, into Discard, with the projections already memoized. It
// reports ns/row: claiming, projecting, building and emitting a row,
// with no encoding or I/O behind the sink.
func BenchmarkStreamEvolutionGrid(b *testing.B) {
	a := newAnalyzer(b)
	var sink stream.Discard
	run := func() {
		sink.Rows = 0
		if err := streamTable3(a, &sink); err != nil {
			b.Fatal(err)
		}
	}
	run() // warm the projection memo
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(sink.Rows*int64(b.N)), "ns/row")
}

// streamTable3 streams the grid perfbench's search workload reduces:
// the Table-3 axes (B=1) under 1000 flop-vs-bw scenarios from 1x to 4x,
// ascending, 156k rows.
func streamTable3(a *Analyzer, sink stream.Sink) error {
	evos := make([]hw.Evolution, 1000)
	for i := range evos {
		evos[i] = hw.RatioScenario(1 + 3*float64(i)/float64(len(evos)-1))
	}
	return a.StreamEvolutionGridCtx(context.Background(), Table3Hs(), Table3SLs(), Table3TPs(), 1, evos, sink)
}

// BenchmarkSearchReducersTable3 is the reducer rung of perfbench's
// search workload with no timer around each call: the stream
// BenchmarkStreamEvolutionGrid produces is captured once, then
// replayed into each reducer alone and into all three behind Multi, as
// search attaches them. One op is a pass into fresh reducers, closed at
// its end; ns/row is what a streamed row costs there.
func BenchmarkSearchReducersTable3(b *testing.B) {
	var grid collectSink
	if err := streamTable3(newAnalyzer(b), &grid); err != nil {
		b.Fatal(err)
	}
	rows := grid.rows
	topK := func() *stream.TopK {
		tk, err := stream.NewTopK(10)
		if err != nil {
			b.Fatal(err)
		}
		return tk
	}
	for _, bc := range []struct {
		name string
		sink func() stream.Sink
	}{
		{"Pareto", func() stream.Sink { return stream.NewPareto() }},
		{"TopK", func() stream.Sink { return topK() }},
		{"Marginals", func() stream.Sink { return stream.NewMarginals() }},
		{"Multi", func() stream.Sink { return stream.Multi(topK(), stream.NewPareto(), stream.NewMarginals()) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink := bc.sink()
				for _, r := range rows {
					if err := sink.Emit(r); err != nil {
						b.Fatal(err)
					}
				}
				if err := sink.Close(grid.trailer); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rows)), "ns/row")
		})
	}
}
