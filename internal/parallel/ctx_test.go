package parallel

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapContainsPanicAsLowestIndexError(t *testing.T) {
	// A panicking task must not kill the process; it must surface as a
	// *PanicError naming the grid index, and the lowest-index guarantee
	// must hold against both other panics and ordinary errors.
	for _, workers := range []int{1, 2, 8} {
		_, err := collect(workers, 64, func(i int) (int, error) {
			switch i {
			case 9:
				panic("boom")
			case 33:
				panic("later boom")
			case 40:
				return 0, errors.New("plain error")
			}
			return i, nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		if pe.Index != 9 {
			t.Fatalf("workers=%d: panic index = %d, want 9", workers, pe.Index)
		}
		if !strings.Contains(err.Error(), "task 9 panicked: boom") {
			t.Fatalf("workers=%d: err = %q, want task 9 named", workers, err)
		}
		if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "goroutine") {
			t.Fatalf("workers=%d: panic stack not captured", workers)
		}
	}
}

func TestMapPanicEqualsSequential(t *testing.T) {
	// Sequential-equivalence for panics: parallel runs report the same
	// (lowest) panic index the sequential loop hits first.
	fn := func(i int) (int, error) {
		if i%13 == 5 {
			panic(fmt.Sprintf("p@%d", i))
		}
		return i, nil
	}
	_, seqErr := collect(1, 50, fn)
	for _, workers := range []int{2, 4, 16} {
		_, parErr := collect(workers, 50, fn)
		if seqErr == nil || parErr == nil || seqErr.Error() != parErr.Error() {
			t.Fatalf("workers=%d: parallel %v != sequential %v", workers, parErr, seqErr)
		}
	}
}

// TestMapCtxCancellation: a mid-run cancel stops claiming and returns
// ctx's error with a contiguous completed prefix; on one worker the
// prefix ends exactly where the cancel landed.
func TestMapCtxCancellation(t *testing.T) {
	bothPaths(t, func(t *testing.T, workers int) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var calls atomic.Int64
		const n = 10_000
		out, err := Collect(ctx, workers, n, func(_ context.Context, i int) (int, error) {
			if calls.Add(1) == 8 {
				cancel()
			}
			return i * 3, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if c := calls.Load(); c >= n || len(out) >= n {
			t.Fatalf("cancellation did not stop claiming (%d calls, %d results)", c, len(out))
		}
		if workers == 1 && len(out) != 8 {
			t.Fatalf("sequential cancel kept %d results, want 8", len(out))
		}
		for i, v := range out {
			if v != i*3 {
				t.Fatalf("prefix out[%d] = %d, want %d", i, v, i*3)
			}
		}
	})
}

func TestMapCtxDeadline(t *testing.T) {
	bothPaths(t, func(t *testing.T, workers int) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		defer cancel()
		out, err := Collect(ctx, workers, 1_000_000, func(ctx context.Context, i int) (int, error) {
			// Park until the deadline fires. Parking tasks spread over the
			// grid hold every worker, so no pool claims it all in time.
			if i%1000 == 0 {
				<-ctx.Done()
			}
			return i, nil
		})
		if !errors.Is(err, context.DeadlineExceeded) || len(out) == 1_000_000 {
			t.Fatalf("(%d results, %v), want a partial prefix and context.DeadlineExceeded", len(out), err)
		}
	})
}

func TestMapCtxCompletesDespiteLateCancel(t *testing.T) {
	// A context that fires after the last task completed is a success.
	bothPaths(t, func(t *testing.T, workers int) {
		ctx, cancel := context.WithCancel(context.Background())
		out, err := Collect(ctx, workers, 32, func(context.Context, int) (int, error) { return 7, nil })
		cancel()
		if err != nil || len(out) != 32 {
			t.Fatalf("completed sweep reported (%d results, %v)", len(out), err)
		}
	})
}

func TestMapPartialKeepsCompletedWork(t *testing.T) {
	// A mid-grid failure keeps the completed prefix — exactly the
	// indices below the failing one, holding their computed values.
	bothPaths(t, func(t *testing.T, workers int) {
		out, err := collect(workers, 40, func(i int) (int, error) {
			if i == 25 {
				return 0, errors.New("bad point")
			}
			return i * 2, nil
		})
		if err == nil || err.Error() != "bad point" || len(out) != 25 {
			t.Fatalf("(%d results, %v), want 25 and bad point", len(out), err)
		}
		for i, v := range out {
			if v != i*2 {
				t.Fatalf("out[%d] = %d, want %d", i, v, i*2)
			}
		}
	})
}

func TestMapPartialCancellation(t *testing.T) {
	bothPaths(t, func(t *testing.T, workers int) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // canceled before any task runs
		var calls atomic.Int64
		out, err := Collect(ctx, workers, 16, func(_ context.Context, i int) (int, error) {
			calls.Add(1)
			return i, nil
		})
		if !errors.Is(err, context.Canceled) || len(out) != 0 || calls.Load() != 0 {
			t.Fatalf("pre-canceled sweep: (%d results, %d calls, %v)", len(out), calls.Load(), err)
		}
	})
}

// TestMapPartialPanicUnwraps: a best-effort grid's PartialError names
// the completed prefix and unwraps to the contained panic.
func TestMapPartialPanicUnwraps(t *testing.T) {
	bothPaths(t, func(t *testing.T, workers int) {
		out, cause := collect(workers, 8, func(i int) (int, error) {
			if i == 3 {
				panic("kaboom")
			}
			return i, nil
		})
		err := error(&PartialError{Cause: cause, Done: len(out)})
		var pan *PanicError
		if !errors.As(err, &pan) || pan.Index != 3 {
			t.Fatalf("err = %v, want *PanicError at 3 through PartialError", err)
		}
		if want := "parallel: sweep incomplete (3 tasks done): parallel: task 3 panicked: kaboom"; err.Error() != want {
			t.Fatalf("err = %q, want %q", err, want)
		}
	})
}

func TestMapPartialCompleteRunHasNilError(t *testing.T) {
	bothPaths(t, func(t *testing.T, workers int) {
		out, err := collect(workers, 10, func(i int) (int, error) { return i, nil })
		if err != nil || len(out) != 10 {
			t.Fatalf("complete run: (%d, %v)", len(out), err)
		}
	})
}

func TestMapPartialArgErrors(t *testing.T) {
	if out, err := Collect[int](context.Background(), 2, -1, nil); err == nil || out != nil {
		t.Fatal("invalid args accepted")
	} else if _, ok := err.(*PartialError); ok {
		t.Fatal("argument error wrapped as PartialError")
	}
}
