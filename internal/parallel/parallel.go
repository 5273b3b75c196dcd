// Package parallel is the bounded worker-pool sweep engine behind the
// repo's grid studies. The paper's method projects hundreds of
// (H × SL × TP × evolution) configurations from one profiled baseline
// (§4.2.4, Table 3); those projections are embarrassingly parallel and
// independent, so this package fans them out over a bounded pool while
// keeping every observable result byte-identical to the sequential
// loop: outputs are ordered by grid index, and the reported error is
// the one the sequential loop would have hit first.
//
// One claim loop does the work; two front ends sit on it. Collect
// writes every chunk straight into a result slice and returns the
// completed prefix; StreamCtx hands chunks to a caller's emit function
// in index order, holding only O(workers × chunk) results. The engine
// is hardened for long production sweeps: a panicking task is
// contained and reported as an error naming its grid index (the
// process survives, see PanicError), and a sweep can be canceled or
// deadlined through its context, keeping the contiguous prefix it
// completed.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"twocs/internal/telemetry"
)

// Workers resolves a worker-count setting: n > 0 requests exactly n
// workers, anything else defaults to runtime.NumCPU(). A resolved count
// of 1 selects the purely sequential path (no goroutines spawned).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// checkArgs validates the arguments Collect and StreamCtx share.
func checkArgs(n int, fnNil bool) error {
	if n < 0 {
		return fmt.Errorf("parallel: negative task count %d", n)
	}
	if fnNil {
		return fmt.Errorf("parallel: nil task function")
	}
	return nil
}

// Collect evaluates fn(0) .. fn(n-1) using at most Workers(workers)
// goroutines and returns the results indexed like the inputs — the
// output is deterministic regardless of worker count or scheduling. fn
// must be safe for concurrent invocation when more than one worker is
// requested.
//
// A run that stops early returns the longest completed prefix
// out[:k] and the cause: the lowest-index task error (a panic is
// contained as a *PanicError at its index), else ctx's error. Every
// index below the cause is complete, exactly as in the sequential
// loop. Cancellation stops new chunk claims and already-claimed chunks
// finish, so the prefix covers every claimed chunk; on one worker it
// stops at the next index. A context that fires only after every task
// completed is a success. Argument errors (negative n, nil fn) return
// no results.
//
// Each worker claims the next chunk as soon as it finishes one, never
// waiting on another worker: a skewed chunk delays only itself.
func Collect[T any](ctx context.Context, workers, n int, fn func(context.Context, int) (T, error)) ([]T, error) {
	if err := checkArgs(n, fn == nil); err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	workers = min(Workers(workers), n)
	out := make([]T, n)
	// Collect leaves the process-wide progress tracker alone: it tracks
	// the one streamed sweep a daemon is serving, which a concurrent
	// study must not move.
	done, err := run(ctx, workers, n, chunkSize(n, workers), out, nil, fn,
		func(int, int, []T, error) bool { return true })
	telemetry.Active().Count("parallel.stream.rows", int64(done))
	return out[:done], err
}

// runChunk evaluates fn(ctx, lo+k) into vals[k] for each k in turn
// and returns how many completed and the error that stopped it, if
// any. One deferred recover contains a panic anywhere in the chunk: it
// becomes a *PanicError naming the grid index lo+k of the task that
// raised it, with the stack captured for the report, instead of
// crashing the process. With poll set, ctx is consulted before every
// task.
func runChunk[T any](ctx context.Context, fn func(context.Context, int) (T, error), lo int, vals []T, poll bool) (k int, err error) {
	defer func() {
		if r := recover(); r != nil {
			telemetry.Active().Count("parallel.task.panics", 1)
			err = newPanicError(lo+k, r)
		}
	}()
	for ; k < len(vals); k++ {
		if poll {
			if err = ctx.Err(); err != nil {
				return k, err
			}
		}
		if vals[k], err = fn(ctx, lo+k); err != nil {
			return k, err
		}
	}
	return k, nil
}

// chunkSize picks how many consecutive indices one claim hands a
// Collect worker. Fine-grained grids (an evolution grid point is a few
// map loads and some arithmetic) spend a measurable share of their
// wall time on claim traffic when every task is its own atomic
// increment; batching amortizes that to one claim per chunk. The size
// is derived only from n and workers — never from timing — so the
// dispatch pattern, and with it every observable result, stays
// deterministic. The cap keeps the tail balanced when task costs are
// skewed, and 4 chunks per worker bounds the idle tail at ~1/4 of one
// worker's share.
func chunkSize(n, workers int) int {
	c := n / (workers * 4)
	if c < 1 {
		return 1
	}
	if c > 64 {
		return 64
	}
	return c
}

// claimState is what the workers of one run share: the next chunk to
// claim, the stop flag, and the lowest-index task error. Only the error
// path takes mu.
type claimState struct {
	next    atomic.Int64
	stopped atomic.Bool
	wg      sync.WaitGroup

	mu     sync.Mutex
	err    error // lowest-index stop, guarded by mu
	errIdx int   // its index, n when none; guarded by mu
}

// fail records err as the stop at index i unless a lower index already
// stopped.
func (s *claimState) fail(i int, err error) {
	s.mu.Lock()
	if i < s.errIdx {
		s.errIdx, s.err = i, err
	}
	s.mu.Unlock()
}

// firstErr returns the lowest-index stop and its index (n and nil when
// no task failed).
func (s *claimState) firstErr() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.errIdx, s.err
}

// run is the one claim loop behind Collect and StreamCtx. Workers
// claim chunks of chunk consecutive indices from a monotone counter.
// With out non-nil, chunk [lo, hi)'s results are written straight to
// out[lo:hi]; otherwise each worker fills one buffer of its own, reused
// chunk after chunk. After every claimed chunk, done(w, c, vals, err)
// receives what chunk c produced — all its results, or the prefix
// before the error err that stopped it — and returns false to stop the
// run.
//
// A task error, or a panic contained by runChunk, stops new claims at
// once. A pool consults ctx per claim, so its claimed chunk always runs
// to completion or to its own error; chunks are claimed monotonically,
// so every index below the lowest failing one is complete. One worker
// runs on the caller's goroutine and consults ctx before every task,
// stopping at the next index.
//
// run returns the length k of the completed prefix and the cause that
// stopped it: the lowest-index task error, else ctx's error when k < n,
// else nil. A run stopped by done reports no cause of its own. pr
// receives each worker's busy time; a nil pr records nothing.
func run[T any](ctx context.Context, workers, n, chunk int, out []T, pr *telemetry.Progress,
	fn func(context.Context, int) (T, error),
	done func(w, c int, vals []T, err error) bool) (int, error) {
	nChunks := (n + chunk - 1) / chunk
	workers = min(workers, nChunks)
	// Self-telemetry: when a collector is active, every worker gets its
	// own trace lane carrying one span per chunk, so a -trace export
	// shows how the grid was scheduled at a cost that does not grow
	// per row. With telemetry disabled (tel == nil) each hook below is
	// a nil-receiver no-op that performs no allocation.
	tel := telemetry.Active()
	tel.Count("parallel.stream.calls", 1)
	tel.Count("parallel.stream.tasks", int64(n))
	pr.SetWorkers(workers)

	st := &claimState{errIdx: n} // the workers' shared state, one allocation
	work := func(w int) {
		var lane telemetry.Lane
		if tel != nil {
			lane = tel.Lane("stream-worker " + strconv.Itoa(w))
		}
		var buf []T
		if out == nil {
			buf = make([]T, chunk)
		}
		for !st.stopped.Load() {
			// A pool consults ctx per claim, one worker per task.
			if workers > 1 && ctx.Err() != nil {
				return
			}
			c := int(st.next.Add(1)) - 1
			if c >= nChunks {
				return
			}
			lo := c * chunk
			hi := min(lo+chunk, n)
			var vals []T
			if out != nil {
				vals = out[lo:hi]
			} else {
				vals = buf[:hi-lo]
			}
			sp := lane.StartIndexed("chunk", c)
			k, err := runChunk(ctx, fn, lo, vals, workers == 1)
			if err != nil {
				st.fail(lo+k, err)
				st.stopped.Store(true)
			}
			pr.WorkerBusy(w, endChunk(tel, sp))
			if !done(w, c, vals[:k], err) {
				st.stopped.Store(true)
				return
			}
		}
	}
	if workers == 1 {
		work(0)
	} else {
		for w := 0; w < workers; w++ {
			st.wg.Add(1)
			go func(w int) {
				defer st.wg.Done()
				work(w)
			}(w)
		}
		st.wg.Wait()
	}

	// A task error wins over a concurrent cancellation: it is
	// deterministic with respect to the work that actually ran, where
	// the cancellation's timing is not. Without one, every claimed
	// chunk ran to completion, and the claimed chunks are [0, claimed).
	k, cause := st.firstErr()
	if cause == nil {
		k = min(int(st.next.Load())*chunk, n)
		if k < n {
			cause = ctx.Err()
		}
	}
	if cause != nil && cause == ctx.Err() {
		tel.Count("parallel.stream.canceled", 1)
	}
	return k, cause
}
