package profile

import (
	"fmt"
	"sort"
	"sync"

	"twocs/internal/telemetry"
	"twocs/internal/units"
)

// Ledger accumulates accelerator time spent profiling, the currency of
// the paper's §4.3.8 cost comparison: the proposed strategy profiles one
// baseline iteration plus isolated ROIs; the exhaustive alternative
// executes every studied configuration end-to-end.
//
// A Ledger is safe for concurrent use: the parallel sweep engine charges
// ROI costs from many goroutines at once. Totals are order-independent —
// they are summed in sorted line-item order, so the result does not
// depend on which goroutine's Add landed first.
type Ledger struct {
	mu      sync.Mutex
	entries map[string]units.Seconds // guarded by mu
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{entries: make(map[string]units.Seconds)}
}

// Add charges cost under a named line item (accumulating repeats).
// Each successful charge is also recorded with the active telemetry
// collector: a charge-event counter plus a histogram of the simulated
// cost — the ledger is the §4.3.8 cost argument, so its activity is
// the first thing an engine trace should show.
func (l *Ledger) Add(item string, cost units.Seconds) error {
	if cost < 0 {
		return fmt.Errorf("profile: negative cost %v for %q", cost, item)
	}
	tel := telemetry.Active()
	tel.Count("profile.ledger.charge", 1)
	tel.Observe("profile.ledger.charge.sim_ns", telemetry.SimNanos(float64(cost)))
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries[item] += cost
	return nil
}

// Total returns the summed cost. The sum runs in sorted line-item order
// so it is deterministic for a given set of entries, however they were
// interleaved by concurrent Adds.
func (l *Ledger) Total() units.Seconds {
	l.mu.Lock()
	defer l.mu.Unlock()
	names := make([]string, 0, len(l.entries))
	for n := range l.entries {
		names = append(names, n)
	}
	sort.Strings(names)
	var t units.Seconds
	for _, n := range names {
		t += l.entries[n]
	}
	return t
}

// SpeedupReport compares two profiling approaches.
type SpeedupReport struct {
	Exhaustive units.Seconds
	Strategy   units.Seconds
	Speedup    float64
}

// CompareStrategy computes the cost ratio between exhaustive profiling
// and the paper's strategy. It errors on a zero-cost strategy, which
// would indicate nothing was actually profiled.
func CompareStrategy(exhaustive, strategy *Ledger) (SpeedupReport, error) {
	s := strategy.Total()
	if s <= 0 {
		return SpeedupReport{}, fmt.Errorf("profile: strategy ledger is empty")
	}
	e := exhaustive.Total()
	return SpeedupReport{
		Exhaustive: e,
		Strategy:   s,
		Speedup:    float64(e) / float64(s),
	}, nil
}
