// Package telemetry is the analysis engine's self-observability layer:
// where internal/sim traces the *simulated* cluster, this package
// traces the tool itself — sweep-engine chunk spans, cache hit rates, ledger
// charge events, operator-timing histograms — so every performance
// claim about the engine can be measured rather than asserted (the
// same bar the paper holds its own instrumentation to, §4.2/§4.3.8).
//
// The package is zero-dependency (stdlib only) and concurrency-safe.
// Collection is opt-in: a nil *Collector is a valid no-op collector,
// every method on it returns immediately, and the disabled span hot
// path performs no allocations — the sweep engine can stay
// instrumented permanently without taxing benchmark runs.
//
// Two kinds of measurements flow through a Collector:
//
//   - Deterministic metrics: counts and simulated durations (the
//     model's units.Seconds outputs, recorded as integer nanoseconds).
//     These are byte-identical run to run and at any -workers count,
//     like every other observable output of the repo.
//   - Wall-clock measurements: spans and any metric named with the
//     ".wall_ns" suffix (WallSuffix). These depend on the host and the
//     scheduler and are excluded from Snapshot.Deterministic.
package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// WallSuffix marks metric names that record host wall-clock time.
// Metrics so named are dropped by
// Snapshot.Deterministic, since scheduling makes them vary run to run;
// everything else a Collector records must be deterministic.
const WallSuffix = ".wall_ns"

// Collector accumulates metrics and spans for one run. The zero value
// is not usable; construct with NewCollector. A nil *Collector is a
// valid no-op: all methods are nil-safe and free of allocation, so
// instrumented hot paths may call through unconditionally.
type Collector struct {
	epoch time.Time

	mu       sync.Mutex
	counters map[string]int64      // guarded by mu
	hists    map[string]*histogram // guarded by mu
	laneIDs  map[string]int        // guarded by mu
	lanes    []string              // guarded by mu
	spans    []finishedSpan        // guarded by mu
}

// NewCollector returns an empty collector whose span clock starts now.
// Lane 0 ("main") exists from the start and backs Collector.Start.
func NewCollector() *Collector {
	return &Collector{
		epoch:    time.Now(),
		counters: make(map[string]int64),
		hists:    make(map[string]*histogram),
		laneIDs:  map[string]int{mainLaneName: 0},
		lanes:    []string{mainLaneName},
	}
}

const mainLaneName = "main"

// active is the process-wide collector consulted by instrumented code.
var active atomic.Pointer[Collector]

// Enable installs c as the process-wide active collector; Enable(nil)
// disables collection. Instrumented packages read it through Active on
// every hot-path call, so enabling takes effect immediately.
func Enable(c *Collector) { active.Store(c) }

// Active returns the process-wide collector, or nil when telemetry is
// disabled. The nil result is safe to use directly: all Collector
// methods are nil-safe no-ops.
func Active() *Collector { return active.Load() }

// since returns the span-clock reading. Only called on non-nil c.
func (c *Collector) since() time.Duration { return time.Since(c.epoch) }
