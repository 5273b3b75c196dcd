package parallel

import (
	"bytes"
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
		out, err := Map(workers, n, func(i int) (int, error) { return i * i, nil })
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

func TestMapEmptyAndInvalid(t *testing.T) {
	out, err := Map(4, 0, func(int) (int, error) { return 0, nil })
	if err != nil || out != nil {
		t.Fatalf("Map(_, 0, _) = (%v, %v), want (nil, nil)", out, err)
	}
	if _, err := Map(4, -1, func(int) (int, error) { return 0, nil }); err == nil {
		t.Fatal("negative n should error")
	}
	if _, err := Map[int](4, 3, nil); err == nil {
		t.Fatal("nil fn should error")
	}
}

func TestMapLowestIndexError(t *testing.T) {
	// Several indices fail; the reported error must always be the lowest
	// failing index's — exactly what the sequential loop would return.
	failAt := map[int]bool{7: true, 23: true, 59: true}
	for _, workers := range []int{1, 2, 4, 16} {
		_, err := Map(workers, 64, func(i int) (int, error) {
			if failAt[i] {
				return 0, fmt.Errorf("boom at %d", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "boom at 7" {
			t.Fatalf("workers=%d: err = %v, want boom at 7", workers, err)
		}
	}
}

func TestMapCancelsAfterError(t *testing.T) {
	// After a failure at index 0, the pool must stop claiming new work:
	// with monotonic claiming, far fewer than n calls should happen.
	var calls atomic.Int64
	n := 10_000
	_, err := Map(4, n, func(i int) (int, error) {
		calls.Add(1)
		if i == 0 {
			return 0, errors.New("early failure")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if c := calls.Load(); c >= int64(n) {
		t.Fatalf("sweep did not cancel: %d calls for n=%d", c, n)
	}
}

func TestMapConcurrentExecution(t *testing.T) {
	// All fn invocations must be tracked exactly once on success.
	var calls atomic.Int64
	const n = 500
	out, err := Map(8, n, func(i int) (int, error) {
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
		seq, err1 := Map(1, n, fn)
		par, err2 := Map(workers, n, fn)
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
// parallel error matches the sequential loop's first error.
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
		_, seqErr := Map(1, n, fn)
		_, parErr := Map(workers, n, fn)
		if (seqErr == nil) != (parErr == nil) {
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

// TestMapTelemetryWorkerLanes asserts the trace contract of the ISSUE's
// acceptance criterion: a Map run with telemetry enabled exports one
// Chrome-trace thread lane per sweep worker, with every task appearing
// as a span, and the task counters reflect the grid size.
func TestMapTelemetryWorkerLanes(t *testing.T) {
	col := telemetry.NewCollector()
	telemetry.Enable(col)
	defer telemetry.Enable(nil)

	const workers, n = 4, 32
	if _, err := Map(workers, n, func(i int) (int, error) { return i, nil }); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := col.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	lanes := make(map[string]bool)
	taskSpans := 0
	for _, e := range events {
		switch e["ph"] {
		case "M":
			if e["name"] == "thread_name" {
				if args, ok := e["args"].(map[string]any); ok {
					lanes[args["name"].(string)] = true
				}
			}
		case "X":
			if strings.HasPrefix(e["name"].(string), "task ") {
				taskSpans++
			}
		}
	}
	for w := 0; w < workers; w++ {
		if !lanes[fmt.Sprintf("sweep-worker %d", w)] {
			t.Errorf("trace missing lane for worker %d (lanes: %v)", w, lanes)
		}
	}
	if taskSpans != n {
		t.Errorf("trace has %d task spans, want %d", taskSpans, n)
	}

	snap := col.Snapshot()
	counters := make(map[string]int64)
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	if counters["parallel.map.calls"] != 1 || counters["parallel.map.tasks"] != n {
		t.Errorf("map counters: %v", counters)
	}
}
