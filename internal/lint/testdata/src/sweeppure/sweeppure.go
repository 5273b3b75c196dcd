// Package sweeppure exercises the sweeppure analyzer against the real
// twocs/internal/parallel engine: task closures handed to Collect or
// StreamCtx must not mutate captured state; StreamCtx's emit closure
// may.
package sweeppure

import (
	"context"

	"twocs/internal/parallel"
)

// --- positives ---

func sumRace(ctx context.Context, n int) (float64, error) {
	var total float64
	_, err := parallel.Collect(ctx, 0, n, func(_ context.Context, i int) (float64, error) {
		total += float64(i) // want "mutates captured variable"
		return total, nil
	})
	return total, err
}

func mapWriteRace(ctx context.Context, n int) (map[int]bool, error) {
	seen := make(map[int]bool)
	_, err := parallel.Collect(ctx, 0, n, func(_ context.Context, i int) (int, error) {
		seen[i] = true // want "map write"
		return i, nil
	})
	return seen, err
}

func counterRace(ctx context.Context, n int) ([]int, error) {
	count := 0
	return parallel.Collect(ctx, 0, n, func(_ context.Context, i int) (int, error) {
		count++ // want "mutates captured variable"
		return count, nil
	})
}

func ctxSumRace(ctx context.Context, n int) (float64, error) {
	var total float64
	_, err := parallel.Collect(ctx, 0, n, func(_ context.Context, i int) (float64, error) {
		total += float64(i) // want "mutates captured variable"
		return total, nil
	})
	return total, err
}

func partialCounterRace(ctx context.Context, n int) ([]int, error) {
	count := 0
	return parallel.Collect(ctx, 0, n, func(_ context.Context, i int) (int, error) {
		count++ // want "mutates captured variable"
		return count, nil
	})
}

type tally struct{ hits int }

func fieldWriteRace(ctx context.Context, n int) (*tally, error) {
	t := &tally{}
	_, err := parallel.Collect(ctx, 0, n, func(_ context.Context, i int) (int, error) {
		t.hits++ // want "write through field or pointer"
		return i, nil
	})
	return t, err
}

func streamTaskRace(ctx context.Context, n int) (int, error) {
	produced := 0
	err := parallel.StreamCtx(ctx, 0, n, 0,
		func(_ context.Context, i int) (int, error) {
			produced++ // want "parallel.StreamCtx closure mutates captured variable"
			return i, nil
		},
		func(int, []int) error { return nil })
	return produced, err
}

// --- negatives ---

func pureOK(ctx context.Context, xs []float64) ([]float64, error) {
	return parallel.Collect(ctx, 0, len(xs), func(_ context.Context, i int) (float64, error) {
		return xs[i] * 2, nil
	})
}

func ctxPureOK(ctx context.Context, xs []float64) ([]float64, error) {
	return parallel.Collect(ctx, 0, len(xs), func(_ context.Context, i int) (float64, error) {
		return xs[i] * 2, nil
	})
}

func localStateOK(ctx context.Context, n int) ([]int, error) {
	return parallel.Collect(ctx, 0, n, func(_ context.Context, i int) (int, error) {
		acc := 0
		for j := 0; j < i; j++ {
			acc += j
		}
		return acc, nil
	})
}

func ignoredWithReason(ctx context.Context, n int) (int, error) {
	calls := 0
	_, err := parallel.Collect(ctx, 1, n, func(_ context.Context, i int) (int, error) {
		//lint:ignore sweeppure single worker requested; fixture exercises suppression
		calls++
		return i, nil
	})
	return calls, err
}

func streamEmitAccumulatesOK(ctx context.Context, xs []float64) (float64, error) {
	var total float64
	err := parallel.StreamCtx(ctx, 0, len(xs), 0,
		func(_ context.Context, i int) (float64, error) { return xs[i] * 2, nil },
		func(_ int, vals []float64) error {
			for _, v := range vals {
				total += v
			}
			return nil
		})
	return total, err
}
