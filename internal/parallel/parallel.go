// Package parallel is the bounded worker-pool sweep engine behind the
// repo's grid studies. The paper's method projects hundreds of
// (H × SL × TP × evolution) configurations from one profiled baseline
// (§4.2.4, Table 3); those projections are embarrassingly parallel and
// independent, so this package fans them out over a bounded pool while
// keeping every observable result byte-identical to the sequential
// loop: outputs are ordered by grid index, and the reported error is
// the one the sequential loop would have hit first.
//
// The engine is hardened for long production sweeps: a panicking task
// is contained and reported as an error naming its grid index (the
// process survives, see PanicError), sweeps can be canceled or
// deadlined through a context (MapCtx), and best-effort runs keep the
// work already done instead of discarding it (MapPartial).
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

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

// checkArgs validates the shared Map/MapCtx/MapPartial arguments.
func checkArgs(n int, fnNil bool) error {
	if n < 0 {
		return fmt.Errorf("parallel: negative task count %d", n)
	}
	if fnNil {
		return fmt.Errorf("parallel: nil task function")
	}
	return nil
}

// Map evaluates fn(0) .. fn(n-1) using at most Workers(workers)
// goroutines and returns the results indexed like the inputs — the
// output slice is deterministic regardless of worker count or
// scheduling. fn must be safe for concurrent invocation when more than
// one worker is requested.
//
// Error semantics match the sequential loop: on failure Map returns the
// error of the lowest failing index. A task that panics does not kill
// the process; the panic is contained and reported as a *PanicError at
// that task's index, competing for lowest-index like any other error.
// The first observed failure cancels the sweep — no new chunks are
// claimed — but already-claimed chunks run to completion (or to their
// own, lower-index error), which is what makes the lowest-index
// guarantee hold: chunks are claimed monotonically, so every index
// below a failing one is either complete or inside a claimed chunk
// whose worker will still visit it when the failure is recorded.
//
//lint:ctxfacade non-Ctx compat entry point; callers without a context use MapCtx to get cancellation
func Map[T any](workers, n int, fn func(int) (T, error)) ([]T, error) {
	if err := checkArgs(n, fn == nil); err != nil {
		return nil, err
	}
	out, oc := mapEngine(context.Background(), workers, n,
		func(_ context.Context, i int) (T, error) { return fn(i) })
	if oc.cause != nil {
		return nil, oc.cause
	}
	return out, nil
}

// outcome is what one engine run observed beyond the result slice.
type outcome struct {
	// completed[i] reports task i finished successfully; nDone counts
	// the true entries.
	completed []bool
	nDone     int
	// cause is nil when all n tasks completed; otherwise the
	// lowest-index task error (possibly a *PanicError) or, when no task
	// failed, the context's error.
	cause error
	// causeIdx is the grid index of a task-error cause, -1 when the
	// cause is the context's (or there is none).
	causeIdx int
}

// runTask invokes fn(ctx, i) with panic containment: a panicking task
// becomes a *PanicError naming the grid index, with the stack captured
// for the report, instead of crashing the process.
func runTask[T any](ctx context.Context, fn func(context.Context, int) (T, error), i int) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			telemetry.Active().Count("parallel.task.panics", 1)
			err = newPanicError(i, r)
		}
	}()
	return fn(ctx, i)
}

// chunkSize picks how many consecutive indices one claim hands a
// worker. Fine-grained grids (an evolution grid point is a few map
// loads and some arithmetic) spend a measurable share of their wall
// time on claim traffic when every task is its own atomic increment;
// batching amortizes that to one claim per chunk. The size is derived
// only from n and workers — never from timing — so the dispatch
// pattern, and with it every observable result, stays deterministic.
// The cap keeps the tail balanced when task costs are skewed, and
// 4 chunks per worker bounds the idle tail at ~1/4 of one worker's
// share.
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

// mapEngine is the shared sweep core behind Map, MapCtx and MapPartial:
// monotonic chunked index claiming over a bounded pool, panic
// containment per task, lowest-index error selection, and cooperative
// cancellation (no new chunk is claimed once ctx is done or a task has
// failed; a claimed chunk always runs to completion or to its own
// error, preserving the lowest-index guarantee). out[i] is only
// meaningful where completed[i] is true.
func mapEngine[T any](ctx context.Context, workers, n int, fn func(context.Context, int) (T, error)) ([]T, outcome) {
	oc := outcome{causeIdx: -1}
	if n == 0 {
		return nil, oc
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	// Self-telemetry: when a collector is active, every worker gets its
	// own trace lane carrying one span per task, so a -trace export
	// shows exactly how the grid was scheduled; counters and the
	// utilization gauge summarize the same picture. With telemetry
	// disabled (tel == nil) each hook below is a nil-receiver no-op
	// that performs no allocation — the sweep hot path stays free.
	tel := telemetry.Active()
	tel.Count("parallel.map.calls", 1)
	tel.Count("parallel.map.tasks", int64(n))
	out := make([]T, n)
	oc.completed = make([]bool, n)
	if workers == 1 {
		lane := tel.Lane("sweep-worker 0")
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				tel.Count("parallel.map.canceled", 1)
				oc.cause = err
				return out, oc
			}
			sp := lane.StartIndexed("task", i)
			v, err := runTask(ctx, fn, i)
			tel.Observe("parallel.task.wall_ns", int64(sp.End()))
			if err != nil {
				oc.cause, oc.causeIdx = err, i
				return out, oc
			}
			out[i] = v
			oc.completed[i] = true
			oc.nDone++
		}
		return out, oc
	}

	chunk := chunkSize(n, workers)
	var (
		next   atomic.Int64
		failed atomic.Bool
		nDone  atomic.Int64
		wg     sync.WaitGroup

		mu          sync.Mutex
		firstErr    error
		firstErrIdx = n

		mapStart  time.Time
		busyTotal atomic.Int64
	)
	if tel != nil {
		mapStart = time.Now()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var lane telemetry.Lane
			var workerStart time.Time
			if tel != nil {
				lane = tel.Lane("sweep-worker " + strconv.Itoa(w))
				workerStart = time.Now()
			}
			var busy int64
			defer func() {
				if tel == nil {
					return
				}
				busyTotal.Add(busy)
				tel.Observe("parallel.worker.busy.wall_ns", busy)
				// Queue wait: the worker's non-task time — claim
				// overhead plus any tail idling after its last task.
				tel.Observe("parallel.worker.queuewait.wall_ns",
					int64(time.Since(workerStart))-busy)
			}()
			for {
				// failed/ctx are consulted per chunk, not per task: a
				// claimed chunk must be visited fully (or up to the
				// worker's own error) for the lowest-index guarantee.
				if failed.Load() || ctx.Err() != nil {
					return
				}
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				done := 0
				for i := lo; i < hi; i++ {
					sp := lane.StartIndexed("task", i)
					v, err := runTask(ctx, fn, i)
					d := sp.End()
					busy += int64(d)
					tel.Observe("parallel.task.wall_ns", int64(d))
					if err != nil {
						mu.Lock()
						if i < firstErrIdx {
							firstErrIdx, firstErr = i, err
						}
						mu.Unlock()
						failed.Store(true)
						nDone.Add(int64(done))
						return
					}
					out[i] = v
					oc.completed[i] = true
					done++
				}
				nDone.Add(int64(done))
			}
		}(w)
	}
	wg.Wait()
	oc.nDone = int(nDone.Load())
	if tel != nil {
		if wall := int64(time.Since(mapStart)) * int64(workers); wall > 0 {
			tel.SetGauge("parallel.worker.utilization",
				float64(busyTotal.Load())/float64(wall))
		}
	}
	switch {
	case firstErr != nil:
		// A task error wins over a concurrent cancellation: it is
		// deterministic with respect to the work that actually ran,
		// where the cancellation's timing is not.
		oc.cause, oc.causeIdx = firstErr, firstErrIdx
	case ctx.Err() != nil && oc.nDone < n:
		tel.Count("parallel.map.canceled", 1)
		oc.cause = ctx.Err()
	}
	return out, oc
}
