package profile

import (
	"fmt"
	"sync"
	"testing"

	"twocs/internal/units"
)

// TestLedgerConcurrentAdds hammers Add from many goroutines — run under
// `go test -race` this exercises the mutex — and checks the total is
// exact and the per-item accumulation is lossless.
func TestLedgerConcurrentAdds(t *testing.T) {
	const (
		goroutines = 32
		perG       = 200
	)
	l := NewLedger()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// A shared item plus a per-goroutine item: exercises both
				// map-accumulate and new-entry paths concurrently.
				if err := l.Add("shared", units.Seconds(1)); err != nil {
					t.Error(err)
					return
				}
				if err := l.Add(fmt.Sprintf("g%d", g), units.Seconds(2)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	wantTotal := units.Seconds(goroutines*perG*1 + goroutines*perG*2)
	if got := l.Total(); got != wantTotal {
		t.Fatalf("Total = %v, want %v", got, wantTotal)
	}
	items := l.Items()
	if len(items) != goroutines+1 {
		t.Fatalf("got %d line items, want %d", len(items), goroutines+1)
	}
	for _, it := range items {
		if it.Name == "shared" {
			if it.Cost != units.Seconds(goroutines*perG) {
				t.Fatalf("shared = %v", it.Cost)
			}
		} else if it.Cost != units.Seconds(2*perG) {
			t.Fatalf("%s = %v", it.Name, it.Cost)
		}
	}
}

// TestLedgerConcurrentReads interleaves Adds with Total/Items/TopItems
// readers; under -race any unguarded access fails the run.
func TestLedgerConcurrentReads(t *testing.T) {
	l := NewLedger()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = l.Add(fmt.Sprintf("item-%d", i%5), units.Seconds(1))
			}
		}(g)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = l.Total()
				_ = l.Items()
				_ = l.TopItems(3)
			}
		}()
	}
	wg.Wait()
	if got, want := l.Total(), units.Seconds(8*100); got != want {
		t.Fatalf("Total = %v, want %v", got, want)
	}
}

// TestLedgerTotalOrderIndependent: the same multiset of Adds in two
// different orders must produce identical totals.
func TestLedgerTotalOrderIndependent(t *testing.T) {
	adds := []struct {
		name string
		cost units.Seconds
	}{
		{"a", units.Seconds(0.1)}, {"b", units.Seconds(0.2)},
		{"c", units.Seconds(0.3)}, {"a", units.Seconds(0.4)},
	}
	fwd, rev := NewLedger(), NewLedger()
	for _, ad := range adds {
		if err := fwd.Add(ad.name, ad.cost); err != nil {
			t.Fatal(err)
		}
	}
	for i := len(adds) - 1; i >= 0; i-- {
		if err := rev.Add(adds[i].name, adds[i].cost); err != nil {
			t.Fatal(err)
		}
	}
	if fwd.Total() != rev.Total() {
		t.Fatalf("order-dependent totals: %v vs %v", fwd.Total(), rev.Total())
	}
}
