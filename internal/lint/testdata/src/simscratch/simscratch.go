// Package simscratch exercises the simscratch analyzer against the
// real twocs engine packages: sim.RunState scratch memory must not be
// captured into parallel sweep closures.
package simscratch

import (
	"context"

	"twocs/internal/parallel"
	"twocs/internal/sim"
	"twocs/internal/units"
)

// --- positives ---

func sharedScratch(ctx context.Context, p *sim.Program, durs []units.Seconds, n int) ([]*sim.Trace, error) {
	st := p.NewState()
	return parallel.Collect(ctx, 0, n, func(_ context.Context, i int) (*sim.Trace, error) {
		return p.RunWith(st, durs, sim.Config{}) // want "captured sim.RunState"
	})
}

func sharedScratchCtx(ctx context.Context, p *sim.Program, durs []units.Seconds, n int) ([]*sim.Trace, error) {
	st := p.NewState()
	return parallel.Collect(ctx, 0, n, func(_ context.Context, i int) (*sim.Trace, error) {
		return p.RunWith(st, durs, sim.Config{}) // want "captured sim.RunState"
	})
}

func sharedScratchNested(ctx context.Context, p *sim.Program, durs []units.Seconds, n int) ([]*sim.Trace, error) {
	st := p.NewState()
	return parallel.Collect(ctx, 0, n, func(_ context.Context, i int) (*sim.Trace, error) {
		run := func() (*sim.Trace, error) {
			return p.RunWith(st, durs, sim.Config{}) // want "captured sim.RunState"
		}
		return run()
	})
}

func sharedScratchValue(ctx context.Context, p *sim.Program, st *sim.RunState, durs []units.Seconds, n int) ([]int, error) {
	return parallel.Collect(ctx, 0, n, func(_ context.Context, i int) (int, error) {
		use := st // want "captured sim.RunState"
		_ = use
		return i, nil
	})
}

// --- negatives ---

// Pooled scratch: Program.Run draws per-call state internally.
func pooledRun(ctx context.Context, p *sim.Program, durs []units.Seconds, n int) ([]*sim.Trace, error) {
	return parallel.Collect(ctx, 0, n, func(_ context.Context, i int) (*sim.Trace, error) {
		return p.Run(durs, sim.Config{})
	})
}

// Per-worker scratch allocated inside the closure is the intended
// re-time-loop pattern.
func perTaskState(ctx context.Context, p *sim.Program, durs []units.Seconds, n int) ([]*sim.Trace, error) {
	return parallel.Collect(ctx, 0, n, func(_ context.Context, i int) (*sim.Trace, error) {
		st := p.NewState()
		return p.RunWith(st, durs, sim.Config{})
	})
}

// Scratch used outside any sweep closure is single-goroutine and fine.
func sequentialState(p *sim.Program, durs []units.Seconds) (*sim.Trace, error) {
	st := p.NewState()
	return p.RunWith(st, durs, sim.Config{})
}

// Suppressed with an explicit reason.
func suppressed(ctx context.Context, p *sim.Program, st *sim.RunState, durs []units.Seconds, n int) ([]*sim.Trace, error) {
	return parallel.Collect(ctx, 1, n, func(_ context.Context, i int) (*sim.Trace, error) {
		//lint:ignore simscratch workers=1 pins the sweep to one goroutine here
		return p.RunWith(st, durs, sim.Config{})
	})
}
