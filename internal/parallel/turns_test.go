package parallel

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestTurnsOrder launches one goroutine per turn in shuffled start order
// and checks the critical sections ran strictly by index.
func TestTurnsOrder(t *testing.T) {
	const n = 64
	turns := newSequencer()
	var (
		mu  sync.Mutex
		got []int
		wg  sync.WaitGroup
	)
	// Launch high indices first so the sequencer, not goroutine start
	// order, must impose the ordering.
	for i := n - 1; i >= 0; i-- {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, ok := turns.Do(i, func() error {
				mu.Lock()
				got = append(got, i)
				mu.Unlock()
				return nil
			})
			if !ok {
				t.Errorf("turn %d reported not ok", i)
			}
		}(i)
	}
	wg.Wait()
	if len(got) != n {
		t.Fatalf("ran %d turns, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("turn order got[%d] = %d", i, v)
		}
	}
	if turns.Done() != n || turns.Err() != nil {
		t.Fatalf("final state: done=%d err=%v", turns.Done(), turns.Err())
	}
}

// TestTurnsAbort checks that an erroring turn aborts every later turn
// without running it, the earlier turns all ran, and Err surfaces the
// lowest-index error even when a later turn would also have failed.
func TestTurnsAbort(t *testing.T) {
	const n, failAt = 32, 11
	turns := newSequencer()
	var (
		mu  sync.Mutex
		ran []int
		wg  sync.WaitGroup
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, ok := turns.Do(i, func() error {
				mu.Lock()
				ran = append(ran, i)
				mu.Unlock()
				if i >= failAt {
					return fmt.Errorf("turn %d failed", i)
				}
				return nil
			})
			if ok != (i < failAt) {
				t.Errorf("turn %d ok=%v", i, ok)
			}
		}(i)
	}
	wg.Wait()
	if len(ran) != failAt+1 {
		t.Fatalf("%d turns ran, want %d (prefix plus the failing turn)", len(ran), failAt+1)
	}
	if turns.Done() != failAt {
		t.Fatalf("Done() = %d, want %d", turns.Done(), failAt)
	}
	want := fmt.Sprintf("turn %d failed", failAt)
	if turns.Err() == nil || turns.Err().Error() != want {
		t.Fatalf("Err() = %v, want %q", turns.Err(), want)
	}
}

// TestTurnsAbortReleasesWaiters checks a turn arriving after the abort
// is refused immediately instead of waiting forever.
func TestTurnsAbortReleasesWaiters(t *testing.T) {
	turns := newSequencer()
	boom := errors.New("boom")
	if _, ok := turns.Do(0, func() error { return boom }); ok {
		t.Fatal("failing turn reported ok")
	}
	_, ok := turns.Do(1, func() error {
		t.Error("turn after abort must not run")
		return nil
	})
	if ok {
		t.Fatal("turn after abort reported ok")
	}
	if !errors.Is(turns.Err(), boom) {
		t.Fatalf("Err() = %v", turns.Err())
	}
}
