package parallel

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestChunkSize(t *testing.T) {
	cases := []struct {
		n, workers, want int
	}{
		{1, 1, 1},        // tiny grid: no batching possible
		{10, 4, 1},       // fewer than 4 tasks per worker: stay fine-grained
		{64, 4, 4},       // 64/(4*4)
		{640, 4, 40},     // mid-size grid
		{10_000, 4, 64},  // capped for tail balance
		{10_000, 64, 39}, // wide pool under the cap
	}
	for _, c := range cases {
		if got := chunkSize(c.n, c.workers); got != c.want {
			t.Errorf("chunkSize(%d, %d) = %d, want %d", c.n, c.workers, got, c.want)
		}
	}
}

// TestMapChunkedCompleteCoverage runs sizes that exercise ragged final
// chunks and more claims than workers, checking every index is
// evaluated exactly once and lands in its own slot.
func TestMapChunkedCompleteCoverage(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 257, 1024} {
		for _, workers := range []int{1, 2, 4, 7} {
			var calls atomic.Int64
			out, err := collect(workers, n, func(i int) (int, error) {
				calls.Add(1)
				return i * i, nil
			})
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			if c := calls.Load(); c != int64(n) || len(out) != n {
				t.Fatalf("n=%d workers=%d: %d calls, %d results", n, workers, c, len(out))
			}
			for i, v := range out {
				if v != i*i {
					t.Fatalf("n=%d workers=%d: out[%d] = %d", n, workers, i, v)
				}
			}
		}
	}
}

// TestMapChunkedLowestIndexAcrossChunks places a late failure so it is
// observed (and the stop flag raised) before an earlier chunk's
// failure runs. Because claimed chunks are visited to completion, the
// earlier index must still win — the invariant chunking must preserve.
func TestMapChunkedLowestIndexAcrossChunks(t *testing.T) {
	const n = 1024 // workers=2 -> chunk 64: indices 5 and 700 are claims apart
	release := make(chan struct{})
	var sawLate atomic.Bool
	out, err := collect(2, n, func(i int) (int, error) {
		switch {
		case i == 700:
			// Fail fast and let the early chunk's worker proceed only
			// afterwards, forcing the flag-raised-first interleaving.
			sawLate.Store(true)
			close(release)
			return 0, fmt.Errorf("boom at %d", i)
		case i == 5:
			if sawLate.Load() {
				<-release
			}
			return 0, fmt.Errorf("boom at %d", i)
		case i < 64:
			// Stall the low chunk's worker so index 700 is reached first
			// on the other worker in most schedules.
			for j := 0; j < 1000; j++ {
				_ = j
			}
		}
		return i, nil
	})
	if err == nil || err.Error() != "boom at 5" || len(out) != 5 {
		t.Fatalf("(%d results, %v), want 5 and boom at 5", len(out), err)
	}
}

// TestMapChunkedPanicIndex checks a panic anywhere in a chunk — its
// first, middle or last index — is attributed to its own index, not
// the chunk boundary, and that exactly the prefix before it is
// returned.
func TestMapChunkedPanicIndex(t *testing.T) {
	const n = 1024
	bothPaths(t, func(t *testing.T, workers int) {
		chunk := chunkSize(n, workers)
		lo := 2 * chunk
		for _, boom := range []int{lo, lo + chunk/2, lo + chunk - 1} {
			out, err := collect(workers, n, func(i int) (int, error) {
				if i == boom {
					panic("kaboom")
				}
				return i, nil
			})
			pe, ok := err.(*PanicError)
			if !ok {
				t.Fatalf("boom=%d: err = %T (%v), want *PanicError", boom, err, err)
			}
			if pe.Index != boom || len(out) != boom {
				t.Fatalf("panic at %d attributed to index %d with %d results", boom, pe.Index, len(out))
			}
			for i, v := range out {
				if v != i {
					t.Fatalf("boom=%d: out[%d] = %d", boom, i, v)
				}
			}
		}
	})
}

// TestCollectNoOrderWait pins what separates Collect from StreamCtx:
// a worker never waits for a lower chunk to finish before claiming the
// next one. Task 0 blocks until every other task has run, so a worker
// that waited for its emission turn would deadlock. The grid is small
// enough that every chunk is one index (chunkSize(12, 2) = 1).
func TestCollectNoOrderWait(t *testing.T) {
	const n = 12
	var others atomic.Int64
	allRan := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := collect(2, n, func(i int) (int, error) {
			if i == 0 {
				<-allRan
			} else if others.Add(1) == n-1 {
				close(allRan)
			}
			return i, nil
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Collect waited on task 0 before running the rest of the grid")
	}
}
