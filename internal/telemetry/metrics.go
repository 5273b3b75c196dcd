package telemetry

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"
)

// Count adds delta to the named counter. Counters are the workhorse of
// the deterministic metrics: integer additions commute, so totals are
// identical no matter how worker goroutines interleave.
func (c *Collector) Count(name string, delta int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.counters[name] += delta
	c.mu.Unlock()
}

// Observe records v (an integer quantity, conventionally nanoseconds)
// into the named histogram. Sums, counts, extrema and bucket counts are
// all integers, so concurrent observation order cannot change the
// snapshot — the property the repo's byte-determinism contract needs.
// Durations measured from the host clock must use the WallSuffix
// naming convention; simulated durations should be converted with
// SimNanos.
func (c *Collector) Observe(name string, v int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	h := c.hists[name]
	if h == nil {
		h = &histogram{}
		c.hists[name] = h
	}
	h.observe(v)
	c.mu.Unlock()
}

// SimNanos converts a simulated duration in seconds (the model's
// float64 currency) to integer nanoseconds for Observe, clamping to
// [0, MaxInt64]. Sub-nanosecond simulated times round to zero; the
// multi-year makespans of extreme evolution scenarios stay finite.
func SimNanos(seconds float64) int64 {
	ns := seconds * 1e9
	if ns >= math.MaxInt64 {
		return math.MaxInt64
	}
	if ns <= 0 {
		return 0
	}
	return int64(ns)
}

// histogram accumulates integer observations in power-of-two buckets.
// All fields are guarded by the owning Collector's mu.
type histogram struct {
	count, sum, min, max int64
	// buckets[i] counts observations v with bits.Len64(v) == i
	// (bucket 0 additionally holds v <= 0).
	buckets [65]int64
}

func (h *histogram) observe(v int64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketOf(v)]++
}

func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// CounterValue is one counter in a Snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Bucket is one occupied power-of-two histogram bucket: observations v
// with Lo <= v <= Hi.
type Bucket struct {
	Lo    int64 `json:"lo"`
	Hi    int64 `json:"hi"`
	Count int64 `json:"count"`
}

// HistogramValue is one histogram in a Snapshot.
type HistogramValue struct {
	Name  string `json:"name"`
	Count int64  `json:"count"`
	Sum   int64  `json:"sum"`
	Min   int64  `json:"min"`
	Max   int64  `json:"max"`
	// P50/P95/P99 are bucket-interpolated quantile estimates (see
	// quantile.go); Quantiled reports whether they are populated.
	// Deterministic strips them: the estimates derive from deterministic
	// buckets, but their interpolation formula is not part of the
	// byte-stability contract.
	P50       int64 `json:"p50,omitempty"`
	P95       int64 `json:"p95,omitempty"`
	P99       int64 `json:"p99,omitempty"`
	Quantiled bool  `json:"-"`
	// Buckets lists only occupied buckets, ascending.
	Buckets []Bucket `json:"buckets"`
}

// Mean returns the integer mean observation (0 for an empty histogram).
func (h HistogramValue) Mean() int64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / h.Count
}

// Snapshot is a point-in-time copy of a collector's metrics, each
// section sorted by name — the deterministically ordered form every
// exported artifact of this repo must take.
type Snapshot struct {
	Counters   []CounterValue   `json:"counters"`
	Histograms []HistogramValue `json:"histograms"`
}

// Counter returns the named counter's value and whether it is present.
// Snapshot counters are sorted by name, so the lookup is a binary
// search.
func (s Snapshot) Counter(name string) (int64, bool) {
	i := sort.Search(len(s.Counters), func(i int) bool { return s.Counters[i].Name >= name })
	if i < len(s.Counters) && s.Counters[i].Name == name {
		return s.Counters[i].Value, true
	}
	return 0, false
}

// Snapshot copies the current metrics, sorted by name within each
// section. A nil collector yields the zero Snapshot.
func (c *Collector) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var s Snapshot

	names := make([]string, 0, len(c.counters))
	for n := range c.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	s.Counters = make([]CounterValue, 0, len(names))
	for _, n := range names {
		s.Counters = append(s.Counters, CounterValue{Name: n, Value: c.counters[n]})
	}

	names = names[:0]
	for n := range c.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	s.Histograms = make([]HistogramValue, 0, len(names))
	for _, n := range names {
		h := c.hists[n]
		hv := HistogramValue{Name: n, Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
		for i, cnt := range h.buckets {
			if cnt == 0 {
				continue
			}
			b := Bucket{Count: cnt}
			if i > 0 {
				b.Lo, b.Hi = 1<<(i-1), 1<<i-1
			}
			hv.Buckets = append(hv.Buckets, b)
		}
		hv.quantiles()
		s.Histograms = append(s.Histograms, hv)
	}
	return s
}

// Deterministic returns the subset of the snapshot that is guaranteed
// byte-identical run to run and across worker counts: any counter or
// histogram named with the WallSuffix convention is dropped, and the
// surviving histograms lose their quantile estimates (the interpolation
// formula is not part of the stability contract; see quantile.go).
// What remains — cache hit counts, ledger charges, simulated-duration
// histograms — is the part the determinism tests assert on.
func (s Snapshot) Deterministic() Snapshot {
	var out Snapshot
	for _, cv := range s.Counters {
		if !strings.HasSuffix(cv.Name, WallSuffix) {
			out.Counters = append(out.Counters, cv)
		}
	}
	for _, hv := range s.Histograms {
		if !strings.HasSuffix(hv.Name, WallSuffix) {
			hv.P50, hv.P95, hv.P99, hv.Quantiled = 0, 0, 0, false
			out.Histograms = append(out.Histograms, hv)
		}
	}
	return out
}

// WriteMetrics renders the snapshot as a sorted, line-oriented text
// dump (the cmd/twocs -metrics format). The output is deterministic
// for a deterministic snapshot: ordering is fixed by Snapshot, and all
// values are integers.
func (s Snapshot) WriteMetrics(w io.Writer) error {
	for _, cv := range s.Counters {
		if _, err := fmt.Fprintf(w, "counter %-44s %d\n", cv.Name, cv.Value); err != nil {
			return err
		}
	}
	for _, hv := range s.Histograms {
		q := ""
		if hv.Quantiled {
			q = fmt.Sprintf(" p50=%d p95=%d p99=%d", hv.P50, hv.P95, hv.P99)
		}
		if _, err := fmt.Fprintf(w, "hist    %-44s count=%d sum=%d min=%d max=%d mean=%d%s\n",
			hv.Name, hv.Count, hv.Sum, hv.Min, hv.Max, hv.Mean(), q); err != nil {
			return err
		}
	}
	return nil
}
