package parallel

import (
	"context"
	"fmt"
	"sync"
	"time"

	"twocs/internal/telemetry"
)

// This file is the streaming front end of the sweep engine. Collect
// materializes a full result slice — fine for a hundreds-point figure,
// the memory ceiling for a 10⁶-10⁷ point design-space search. StreamCtx
// runs the same claim loop (index order, sequential-equivalent errors,
// panic attribution, cooperative cancellation) while holding only
// O(workers × chunk) results in memory: workers fill a per-worker
// buffer per chunk and hand completed chunks to the caller's emit
// function in strict index order.

// DefaultStreamChunk is the chunk size StreamCtx uses when the caller
// passes chunk <= 0: large enough to amortize claim and emission-turn
// traffic, small enough that worker buffers stay a few hundred KB for
// row-sized results.
const DefaultStreamChunk = 512

// StreamCtx evaluates fn(0) .. fn(n-1) using at most Workers(workers)
// goroutines and hands the results to emit in strict index order, chunk
// by chunk: emit(lo, vals) delivers the results of indices
// [lo, lo+len(vals)). Emit is never called concurrently with itself and
// must not retain vals — the buffer is reused for a later chunk.
//
// At most one chunk per worker is in flight, so peak memory is
// O(workers × chunk) results regardless of n — the property that lets a
// 10⁶-point grid stream through a fixed-size window. The emitted byte
// stream is identical to the sequential loop's at any worker count.
//
// Error semantics are sequential-equivalent, like Collect: every row
// before the failing index is emitted, no row at or after it is, and
// the returned error is the lowest-index task error (panics contained
// as *PanicError). An emit error aborts the stream and is returned
// as-is. Cancellation stops new chunk claims; already-claimed chunks
// complete and are emitted (the sequential path stops at the next
// index), then ctx's error is returned. A context that fires only after
// every chunk was emitted is a success. The active progress tracker, if
// any, follows the emitted rows.
func StreamCtx[T any](ctx context.Context, workers, n, chunk int, fn func(context.Context, int) (T, error), emit func(lo int, vals []T) error) error {
	if err := checkArgs(n, fn == nil); err != nil {
		return err
	}
	if emit == nil {
		return fmt.Errorf("parallel: nil emit function")
	}
	if chunk <= 0 {
		chunk = DefaultStreamChunk
	}
	if n == 0 {
		return nil
	}
	workers = Workers(workers)
	tel := telemetry.Active()
	// Live progress: when a tracker is active, every emitted chunk
	// advances the rows/chunks tallies and each worker reports the wall
	// time it spent inside tasks — the /progress endpoint's raw
	// material. A nil tracker makes each hook a no-op that performs no
	// allocation, like the telemetry collector.
	pr := telemetry.ActiveProgress()
	turns := newSequencer()
	_, cause := run(ctx, workers, n, chunk, nil, pr, fn,
		func(_, c int, vals []T, taskErr error) bool {
			// Take chunk c's emission turn. Chunks are claimed
			// monotonically and every claimed chunk reaches this
			// call, so the wait cannot starve; the emission-order-
			// first error is the lowest-index error because chunk
			// order is row order. A failed chunk still emits the rows
			// before its failure.
			wait, ok := turns.Do(c, func() error {
				if len(vals) > 0 {
					if err := emit(c*chunk, vals); err != nil {
						return err
					}
					tel.Count("parallel.stream.rows", int64(len(vals)))
					pr.AddRows(int64(len(vals)))
				}
				if taskErr == nil {
					pr.ChunkDone()
				}
				return taskErr
			})
			tel.Observe("parallel.stream.emitwait.wall_ns", int64(wait))
			return ok
		})
	if err := turns.Err(); err != nil {
		return err
	}
	return cause
}

// endChunk ends a chunk's span and records its wall time: the worker's
// busy time on the chunk. Instrumentation is per chunk, not per task,
// so an enabled collector costs a span and an observation per chunk
// and nothing per row: a 10⁶-row stream stores ~2k spans.
func endChunk(tel *telemetry.Collector, sp telemetry.Span) time.Duration {
	d := sp.End()
	tel.Observe("parallel.stream.chunk.wall_ns", int64(d))
	return d
}

// sequencer serializes concurrent producers into a strict turn order:
// the goroutine holding turn i runs its critical section before any
// holder of turn i+1 may start, regardless of which finished producing
// first. It is how StreamCtx turns unordered chunk completion into
// in-order delivery.
//
// Turn indices must be claimed contiguously from 0: every index below
// the highest one passed to Do must eventually be passed to Do by some
// goroutine, or later turns wait forever. StreamCtx guarantees this by
// claiming chunks from a monotone counter and always taking the claimed
// turn, error or not.
type sequencer struct {
	mu   sync.Mutex
	cond *sync.Cond
	// turn is the next index allowed to run; guarded by mu.
	turn int
	// err is the first error in turn (= index) order; once set, later
	// turns are refused. Guarded by mu.
	err error
}

// newSequencer returns a sequencer whose first turn is index 0.
func newSequencer() *sequencer {
	t := &sequencer{}
	t.cond = sync.NewCond(&t.mu)
	return t
}

// Do blocks until index turn's turn arrives, runs f, and advances to
// turn+1 when f returns nil. It returns the time spent waiting for the
// turn and whether the sequence may continue: false means either the
// sequence was aborted before f could run (f did not run), or f itself
// returned the error that aborted it. Because turns run in index order,
// the first recorded error is the lowest-index error: the
// sequential-equivalent error semantics of the sweep engine.
func (t *sequencer) Do(turn int, f func() error) (wait time.Duration, ok bool) {
	start := time.Now()
	t.mu.Lock()
	for t.turn != turn && t.err == nil {
		t.cond.Wait()
	}
	wait = time.Since(start)
	if t.err != nil {
		t.mu.Unlock()
		return wait, false
	}
	if err := f(); err != nil {
		t.err = err
		t.cond.Broadcast()
		t.mu.Unlock()
		return wait, false
	}
	t.turn++
	t.cond.Broadcast()
	t.mu.Unlock()
	return wait, true
}

// Done returns how many turns completed successfully so far.
func (t *sequencer) Done() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.turn
}

// Err returns the error that aborted the sequence, nil if none did.
func (t *sequencer) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}
