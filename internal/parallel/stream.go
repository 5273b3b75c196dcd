package parallel

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"twocs/internal/telemetry"
)

// This file is the streaming side of the sweep engine. The grid studies
// built on Map/MapCtx materialize a full result slice — fine for a
// hundreds-point figure, the memory ceiling for a 10⁶-10⁷ point
// design-space search. StreamCtx keeps the engine's contracts (index
// order, sequential-equivalent errors, panic attribution, cooperative
// cancellation) while holding only O(workers × chunk) results in
// memory: workers claim fixed chunks, fill a per-worker buffer, and
// hand completed chunks to the caller's emit function in strict index
// order.

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
// Error semantics are sequential-equivalent, like Map: every row before
// the failing index is emitted, no row at or after it is, and the
// returned error is the lowest-index task error (panics contained as
// *PanicError). An emit error aborts the stream and is returned as-is.
// Cancellation stops new chunk claims; already-claimed chunks complete
// and are emitted (the sequential path stops at the next index), then
// ctx's error is returned. A context that fires only after every chunk
// was emitted is a success.
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
	nChunks := (n + chunk - 1) / chunk
	if workers > nChunks {
		workers = nChunks
	}
	tel := telemetry.Active()
	tel.Count("parallel.stream.calls", 1)
	tel.Count("parallel.stream.tasks", int64(n))
	// Live progress: when a tracker is active, every emitted chunk
	// advances the rows/chunks tallies and each worker reports the wall
	// time it spent inside tasks — the /progress endpoint's raw
	// material. A nil tracker makes each hook a no-op that performs no
	// allocation, like the telemetry collector.
	pr := telemetry.ActiveProgress()
	pr.SetWorkers(workers)

	if workers == 1 {
		lane := tel.Lane("stream-worker 0")
		buf := make([]T, 0, chunk)
		for lo := 0; lo < n; lo += chunk {
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			buf = buf[:0]
			sp := lane.StartIndexed("chunk", lo/chunk)
			for i := lo; i < hi; i++ {
				if err := ctx.Err(); err != nil {
					tel.Count("parallel.stream.canceled", 1)
					pr.WorkerBusy(0, endChunk(tel, sp))
					return flushPrefix(tel, emit, lo, buf, err)
				}
				v, err := runTask(ctx, fn, i)
				if err != nil {
					pr.WorkerBusy(0, endChunk(tel, sp))
					return flushPrefix(tel, emit, lo, buf, err)
				}
				buf = append(buf, v)
			}
			busy := endChunk(tel, sp)
			tel.Count("parallel.stream.rows", int64(len(buf)))
			if err := emit(lo, buf); err != nil {
				return err
			}
			pr.AddRows(int64(len(buf)))
			pr.ChunkDone()
			pr.WorkerBusy(0, busy)
		}
		return nil
	}

	var (
		nextChunk atomic.Int64
		failed    atomic.Bool
		wg        sync.WaitGroup
	)
	turns := newSequencer()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var lane telemetry.Lane
			if tel != nil {
				lane = tel.Lane("stream-worker " + strconv.Itoa(w))
			}
			buf := make([]T, 0, chunk)
			for {
				// Consulted per chunk, not per task: a claimed chunk is
				// visited fully (or to its own error) so the emission
				// turns below always line up with the claim order.
				if failed.Load() || ctx.Err() != nil {
					return
				}
				c := int(nextChunk.Add(1)) - 1
				if c >= nChunks {
					return
				}
				lo := c * chunk
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				buf = buf[:0]
				sp := lane.StartIndexed("chunk", c)
				var taskErr error
				for i := lo; i < hi; i++ {
					v, err := runTask(ctx, fn, i)
					if err != nil {
						taskErr = err
						// Stop new claims promptly; this chunk still
						// takes its emission turn below so the rows
						// before the failure reach the sink.
						failed.Store(true)
						break
					}
					buf = append(buf, v)
				}
				pr.WorkerBusy(w, endChunk(tel, sp))

				// Take this chunk's emission turn. Chunks are claimed
				// monotonically, so every chunk below c is claimed and
				// will pass through here — the wait cannot starve. The
				// emission-order-first error is the lowest-index error
				// because chunk index order is row index order.
				wait, ok := turns.Do(c, func() error {
					var emitErr error
					if len(buf) > 0 {
						emitErr = emit(lo, buf)
						tel.Count("parallel.stream.rows", int64(len(buf)))
						if emitErr == nil {
							pr.AddRows(int64(len(buf)))
						}
					}
					if emitErr != nil {
						failed.Store(true)
						return emitErr
					}
					if taskErr != nil {
						return taskErr
					}
					pr.ChunkDone()
					return nil
				})
				if tel != nil {
					tel.Observe("parallel.stream.emitwait.wall_ns", int64(wait))
				}
				if !ok {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if streamErr := turns.Err(); streamErr != nil {
		return streamErr
	}
	if err := ctx.Err(); err != nil && turns.Done() < nChunks {
		tel.Count("parallel.stream.canceled", 1)
		return err
	}
	return nil
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

// flushPrefix emits the rows of a partially completed chunk before
// returning the error that stopped it, preserving the every-row-before-
// the-failure contract of the sequential loop.
func flushPrefix[T any](tel *telemetry.Collector, emit func(int, []T) error, lo int, buf []T, cause error) error {
	if len(buf) > 0 {
		if err := emit(lo, buf); err != nil {
			return err
		}
		tel.Count("parallel.stream.rows", int64(len(buf)))
		telemetry.ActiveProgress().AddRows(int64(len(buf)))
	}
	return cause
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
