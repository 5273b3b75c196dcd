package parallel

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"twocs/internal/telemetry"
)

// bothPaths runs body at workers 1 (the sequential path) and 4 (the
// concurrent claim loop): every Collect contract holds on both.
func bothPaths(t *testing.T, body func(t *testing.T, workers int)) {
	t.Helper()
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) { body(t, workers) })
	}
}

// collect is Collect over a context-free task.
func collect[T any](workers, n int, fn func(int) (T, error)) ([]T, error) {
	return Collect(context.Background(), workers, n, func(_ context.Context, i int) (T, error) { return fn(i) })
}

func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Fatalf("Workers(3) = %d", got)
	}
	if got := Workers(1); got != 1 {
		t.Fatalf("Workers(1) = %d", got)
	}
	ncpu := runtime.NumCPU()
	for _, n := range []int{0, -1, -100} {
		if got := Workers(n); got != ncpu {
			t.Fatalf("Workers(%d) = %d, want NumCPU %d", n, got, ncpu)
		}
	}
}

func TestMapOrdering(t *testing.T) {
	const n = 100
	for _, workers := range []int{1, 2, 4, 8, 17, n, 2 * n} {
		out, err := collect(workers, n, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(out) != n {
			t.Fatalf("workers=%d: got %d results", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestMapEmptyAndInvalid: an empty grid is (nil, nil); argument errors
// return no results and a plain error, never a partial result.
func TestMapEmptyAndInvalid(t *testing.T) {
	bothPaths(t, func(t *testing.T, workers int) {
		out, err := collect(workers, 0, func(int) (int, error) { return 0, nil })
		if err != nil || out != nil {
			t.Fatalf("Collect(_, _, 0, _) = (%v, %v), want (nil, nil)", out, err)
		}
		for _, tc := range []struct {
			name string
			n    int
			fn   func(context.Context, int) (int, error)
		}{
			{"negative n", -1, func(context.Context, int) (int, error) { return 0, nil }},
			{"nil fn", 3, nil},
		} {
			out, err := Collect(context.Background(), workers, tc.n, tc.fn)
			if err == nil || out != nil {
				t.Fatalf("%s: (%v, %v), want an error and no results", tc.name, out, err)
			}
		}
	})
}

func TestMapLowestIndexError(t *testing.T) {
	// Several indices fail; the reported error must always be the lowest
	// failing index's — exactly what the sequential loop would return —
	// and the prefix before it is complete.
	failAt := map[int]bool{7: true, 23: true, 59: true}
	for _, workers := range []int{1, 2, 4, 16} {
		out, err := collect(workers, 64, func(i int) (int, error) {
			if failAt[i] {
				return 0, fmt.Errorf("boom at %d", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "boom at 7" {
			t.Fatalf("workers=%d: err = %v, want boom at 7", workers, err)
		}
		if len(out) != 7 {
			t.Fatalf("workers=%d: prefix of %d, want 7", workers, len(out))
		}
	}
}

func TestMapCancelsAfterError(t *testing.T) {
	// After a failure at index 0, the pool must stop claiming new work:
	// with monotonic claiming, far fewer than n calls should happen.
	bothPaths(t, func(t *testing.T, workers int) {
		var calls atomic.Int64
		const n = 10_000
		_, err := collect(workers, n, func(i int) (int, error) {
			calls.Add(1)
			if i == 0 {
				return 0, errors.New("early failure")
			}
			return i, nil
		})
		if err == nil {
			t.Fatal("expected error")
		}
		// Only chunks claimed before the failure was recorded still run;
		// one worker stops at the failing index itself.
		if c := calls.Load(); c >= n || (workers == 1 && c != 1) {
			t.Fatalf("sweep did not cancel: %d calls for n=%d", c, n)
		}
	})
}

func TestMapConcurrentExecution(t *testing.T) {
	// All fn invocations must be tracked exactly once on success.
	var calls atomic.Int64
	const n = 500
	out, err := collect(8, n, func(i int) (int, error) {
		calls.Add(1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != n {
		t.Fatalf("fn called %d times, want %d", calls.Load(), n)
	}
	for i, v := range out {
		if v != i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

// TestQuickParallelEqualsSequential is the engine's core property: for a
// random task count, random worker count, and a deterministic per-index
// function, the parallel result equals the sequential result exactly.
func TestQuickParallelEqualsSequential(t *testing.T) {
	prop := func(nRaw uint8, wRaw uint8) bool {
		n := int(nRaw % 64)
		workers := int(wRaw%16) + 1
		fn := func(i int) (float64, error) { return float64(i*i) / 7.0, nil }
		seq, err1 := collect(1, n, fn)
		par, err2 := collect(workers, n, fn)
		if err1 != nil || err2 != nil {
			return false
		}
		if len(seq) != len(par) {
			return false
		}
		for i := range seq {
			if seq[i] != par[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickErrorEqualsSequential: with a random failing index set, the
// parallel error and completed prefix match the sequential loop's.
func TestQuickErrorEqualsSequential(t *testing.T) {
	prop := func(nRaw, wRaw, failMask uint8) bool {
		n := int(nRaw%48) + 1
		workers := int(wRaw%8) + 1
		fn := func(i int) (int, error) {
			if failMask != 0 && i%int(failMask%7+2) == 1 {
				return 0, fmt.Errorf("fail@%d", i)
			}
			return i, nil
		}
		seq, seqErr := collect(1, n, fn)
		par, parErr := collect(workers, n, fn)
		if (seqErr == nil) != (parErr == nil) || len(seq) != len(par) {
			return false
		}
		if seqErr != nil && seqErr.Error() != parErr.Error() {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestMapTelemetryWorkerLanes asserts the trace contract of a
// materialized sweep: with telemetry enabled, Collect exports one
// Chrome-trace thread lane per worker carrying one span per claimed
// chunk, and the engine counters reflect the grid size.
func TestMapTelemetryWorkerLanes(t *testing.T) {
	col := telemetry.NewCollector()
	telemetry.Enable(col)
	defer telemetry.Enable(nil)

	const workers, n = 4, 32 // chunkSize(32, 4) = 2: 16 chunks
	if _, err := collect(workers, n, func(i int) (int, error) { return i, nil }); err != nil {
		t.Fatal(err)
	}

	lanes, chunkSpans, _ := traceChunks(t, col)
	for w := 0; w < workers; w++ {
		if !lanes[fmt.Sprintf("stream-worker %d", w)] {
			t.Errorf("trace missing lane for worker %d (lanes: %v)", w, lanes)
		}
	}
	if want := n / chunkSize(n, workers); chunkSpans != want {
		t.Errorf("trace has %d chunk spans, want %d", chunkSpans, want)
	}

	counters := make(map[string]int64)
	for _, c := range col.Snapshot().Counters {
		counters[c.Name] = c.Value
	}
	if counters["parallel.stream.calls"] != 1 || counters["parallel.stream.tasks"] != n ||
		counters["parallel.stream.rows"] != n {
		t.Errorf("engine counters: %v", counters)
	}
}

// traceChunks parses col's Chrome trace and returns the engine's
// worker lanes ("stream-worker N") with the chunk and task spans on
// them.
func traceChunks(t *testing.T, col *telemetry.Collector) (lanes map[string]bool, chunks, tasks int) {
	t.Helper()
	var buf bytes.Buffer
	if err := col.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		TID  int               `json:"tid"`
		Args map[string]string `json:"args"`
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	byTID := make(map[int]string)
	lanes = make(map[string]bool)
	for _, e := range events {
		if e.Ph == "M" && e.Name == "thread_name" && strings.HasPrefix(e.Args["name"], "stream-worker ") {
			byTID[e.TID] = e.Args["name"]
			lanes[e.Args["name"]] = true
		}
	}
	for _, e := range events {
		if e.Ph != "X" || byTID[e.TID] == "" {
			continue
		}
		switch {
		case strings.HasPrefix(e.Name, "chunk "):
			chunks++
		case strings.HasPrefix(e.Name, "task "):
			tasks++
		}
	}
	return lanes, chunks, tasks
}
