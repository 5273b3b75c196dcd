package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"twocs/internal/telemetry"
)

// collectStream runs StreamCtx and concatenates everything emitted,
// checking the chunk contract as it goes: lo values strictly increasing
// and contiguous with the rows received so far.
func collectStream(t *testing.T, ctx context.Context, workers, n, chunk int, fn func(context.Context, int) (int, error)) ([]int, error) {
	t.Helper()
	var got []int
	err := StreamCtx(ctx, workers, n, chunk, fn, func(lo int, vals []int) error {
		if lo != len(got) {
			t.Fatalf("emit at lo=%d, want %d (rows must be contiguous and in order)", lo, len(got))
		}
		if chunk > 0 && len(vals) > chunk {
			t.Fatalf("emit delivered %d rows, chunk is %d", len(vals), chunk)
		}
		got = append(got, vals...)
		return nil
	})
	return got, err
}

func TestStreamCtxEquivalence(t *testing.T) {
	square := func(_ context.Context, i int) (int, error) { return i * i, nil }
	for _, n := range []int{0, 1, 5, 64, 257, 1000} {
		for _, workers := range []int{1, 2, 4, 7} {
			for _, chunk := range []int{1, 3, 64, 0} {
				got, err := collectStream(t, context.Background(), workers, n, chunk, square)
				if err != nil {
					t.Fatalf("n=%d w=%d c=%d: %v", n, workers, chunk, err)
				}
				if len(got) != n {
					t.Fatalf("n=%d w=%d c=%d: emitted %d rows", n, workers, chunk, len(got))
				}
				for i, v := range got {
					if v != i*i {
						t.Fatalf("n=%d w=%d c=%d: row %d = %d, want %d", n, workers, chunk, i, v, i*i)
					}
				}
			}
		}
	}
}

// TestStreamCtxLowestIndexError checks sequential-equivalent error
// selection: with every index >= fail failing, exactly the rows below
// fail are emitted and the error names the lowest failing index.
func TestStreamCtxLowestIndexError(t *testing.T) {
	const n, fail = 300, 97
	fn := func(_ context.Context, i int) (int, error) {
		if i >= fail {
			return 0, fmt.Errorf("task %d failed", i)
		}
		return i, nil
	}
	for _, workers := range []int{1, 2, 8} {
		for _, chunk := range []int{1, 7, 64} {
			got, err := collectStream(t, context.Background(), workers, n, chunk, fn)
			if err == nil || err.Error() != fmt.Sprintf("task %d failed", fail) {
				t.Fatalf("w=%d c=%d: err = %v, want task %d", workers, chunk, err, fail)
			}
			if len(got) != fail {
				t.Fatalf("w=%d c=%d: emitted %d rows, want exactly %d", workers, chunk, len(got), fail)
			}
			for i, v := range got {
				if v != i {
					t.Fatalf("w=%d c=%d: row %d = %d", workers, chunk, i, v)
				}
			}
		}
	}
}

func TestStreamCtxPanicAttribution(t *testing.T) {
	// Chunk [40, 48) of 8: a panic at its first, middle and last index.
	const n, chunk = 128, 8
	for _, boom := range []int{40, 44, 47} {
		fn := func(_ context.Context, i int) (int, error) {
			if i == boom {
				panic("stream boom")
			}
			return i, nil
		}
		for _, workers := range []int{1, 4} {
			got, err := collectStream(t, context.Background(), workers, n, chunk, fn)
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("boom=%d w=%d: err = %v, want *PanicError", boom, workers, err)
			}
			if pe.Index != boom {
				t.Fatalf("boom=%d w=%d: panic index %d", boom, workers, pe.Index)
			}
			if len(pe.Stack) == 0 {
				t.Fatalf("boom=%d w=%d: panic stack not captured", boom, workers)
			}
			if len(got) != boom {
				t.Fatalf("boom=%d w=%d: emitted %d rows", boom, workers, len(got))
			}
			for i, v := range got {
				if v != i {
					t.Fatalf("boom=%d w=%d: row %d = %d", boom, workers, i, v)
				}
			}
		}
	}
}

// TestStreamCtxCancel checks a canceled stream emits a clean contiguous
// prefix and reports the context's error.
func TestStreamCtxCancel(t *testing.T) {
	const n = 10_000
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		fn := func(_ context.Context, i int) (int, error) {
			if ran.Add(1) == 50 {
				cancel()
			}
			return i, nil
		}
		got, err := collectStream(t, ctx, workers, n, 16, fn)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("w=%d: err = %v, want context.Canceled", workers, err)
		}
		if len(got) == n {
			t.Fatalf("w=%d: cancellation emitted the full grid", workers)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("w=%d: row %d = %d after cancel", workers, i, v)
			}
		}
		cancel()
	}
}

// TestStreamCtxLateCancelIsSuccess: a context that fires after every
// chunk was emitted does not fail the stream.
func TestStreamCtxLateCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	got, err := collectStream(t, ctx, 4, 100, 8, func(_ context.Context, i int) (int, error) {
		return i, nil
	})
	cancel() // fires only after StreamCtx returned
	if err != nil || len(got) != 100 {
		t.Fatalf("got %d rows, err %v", len(got), err)
	}

	// And a context canceled before the call emits nothing.
	canceled, stop := context.WithCancel(context.Background())
	stop()
	got, err = collectStream(t, canceled, 4, 100, 8, func(_ context.Context, i int) (int, error) {
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled stream: err = %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("pre-canceled stream emitted %d rows", len(got))
	}
}

func TestStreamCtxEmitError(t *testing.T) {
	sinkErr := errors.New("sink full")
	for _, workers := range []int{1, 4} {
		calls := 0
		err := StreamCtx(context.Background(), workers, 1000, 16,
			func(_ context.Context, i int) (int, error) { return i, nil },
			func(lo int, vals []int) error {
				calls++
				if calls == 3 {
					return sinkErr
				}
				return nil
			})
		if !errors.Is(err, sinkErr) {
			t.Fatalf("w=%d: err = %v, want sink error", workers, err)
		}
	}
}

func TestStreamCtxArgErrors(t *testing.T) {
	if err := StreamCtx(context.Background(), 1, -1, 0,
		func(_ context.Context, i int) (int, error) { return 0, nil },
		func(int, []int) error { return nil }); err == nil {
		t.Fatal("negative n accepted")
	}
	if err := StreamCtx[int](context.Background(), 1, 1, 0, nil,
		func(int, []int) error { return nil }); err == nil {
		t.Fatal("nil fn accepted")
	}
	if err := StreamCtx(context.Background(), 1, 1, 0,
		func(_ context.Context, i int) (int, error) { return 0, nil }, nil); err == nil {
		t.Fatal("nil emit accepted")
	}
}

// TestStreamCtxChunkSpans pins the stream's telemetry granularity: with
// a collector on, every claimed chunk records one "chunk <c>" span on a
// stream-worker lane and one parallel.stream.chunk.wall_ns observation,
// and no row records a span of its own.
func TestStreamCtxChunkSpans(t *testing.T) {
	id := func(_ context.Context, i int) (int, error) { return i, nil }
	for _, workers := range []int{1, 4} {
		for _, tc := range []struct{ n, chunk int }{{1000, 64}, {1024, 256}, {5, 0}} {
			col := telemetry.NewCollector()
			telemetry.Enable(col)
			_, err := collectStream(t, context.Background(), workers, tc.n, tc.chunk, id)
			telemetry.Enable(nil)
			if err != nil {
				t.Fatal(err)
			}
			chunk := tc.chunk
			if chunk <= 0 {
				chunk = DefaultStreamChunk
			}
			want := (tc.n + chunk - 1) / chunk

			_, chunks, tasks := traceChunks(t, col)
			if chunks != want || tasks != 0 {
				t.Errorf("w=%d n=%d c=%d: %d chunk spans and %d task spans on stream-worker lanes, want %d and 0",
					workers, tc.n, tc.chunk, chunks, tasks, want)
			}
			var observed int64
			for _, h := range col.Snapshot().Histograms {
				if h.Name == "parallel.stream.chunk.wall_ns" {
					observed = h.Count
				}
			}
			if observed != int64(want) {
				t.Errorf("w=%d n=%d c=%d: parallel.stream.chunk.wall_ns count %d, want %d",
					workers, tc.n, tc.chunk, observed, want)
			}
		}
	}
}

// streamCtxAllocBound is BenchmarkStreamCtx's allocations per stream:
// the engine's buffers and goroutines, 17 or 18 depending on how the
// workers interleave. Nothing is allocated per row or per chunk.
const streamCtxAllocBound = 18

func TestStreamCtxAllocBound(t *testing.T) {
	if avg := testing.AllocsPerRun(20, func() {
		err := StreamCtx(context.Background(), 4, 100_000, 0,
			func(_ context.Context, i int) (int64, error) { return int64(i), nil },
			func(lo int, vals []int64) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
	}); avg > streamCtxAllocBound {
		t.Fatalf("StreamCtx allocates %.0f objects/stream, bound is %d", avg, streamCtxAllocBound)
	}
}

// BenchmarkStreamCtx measures the engine's per-row overhead at the
// default chunk size with trivially cheap tasks.
func BenchmarkStreamCtx(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		err := StreamCtx(context.Background(), 4, 100_000, 0,
			func(_ context.Context, i int) (int64, error) { return int64(i), nil },
			func(lo int, vals []int64) error { return nil })
		if err != nil {
			b.Fatal(err)
		}
	}
}
