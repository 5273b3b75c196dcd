package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCountersAndSnapshotSorted(t *testing.T) {
	c := NewCollector()
	c.Count("z.last", 2)
	c.Count("a.first", 1)
	c.Count("z.last", 3)
	c.SetGauge("m.gauge", 0.5)
	c.Observe("h.hist", 10)
	c.Observe("h.hist", 30)

	s := c.Snapshot()
	if len(s.Counters) != 2 || s.Counters[0].Name != "a.first" || s.Counters[1].Name != "z.last" {
		t.Fatalf("counters not sorted: %+v", s.Counters)
	}
	if s.Counters[1].Value != 5 {
		t.Fatalf("counter accumulation: got %d, want 5", s.Counters[1].Value)
	}
	if len(s.Histograms) != 1 {
		t.Fatalf("histograms: %+v", s.Histograms)
	}
	h := s.Histograms[0]
	if h.Count != 2 || h.Sum != 40 || h.Min != 10 || h.Max != 30 || h.Mean() != 20 {
		t.Fatalf("histogram stats: %+v", h)
	}
}

func TestHistogramBuckets(t *testing.T) {
	c := NewCollector()
	for _, v := range []int64{0, 1, 1, 7, 8, 1 << 40} {
		c.Observe("h", v)
	}
	h := c.Snapshot().Histograms[0]
	var total int64
	for _, b := range h.Buckets {
		total += b.Count
		if b.Count > 0 && b.Hi != 0 && (h.Min > b.Hi || h.Max < b.Lo) {
			t.Fatalf("bucket [%d,%d] outside [min,max]=[%d,%d]", b.Lo, b.Hi, h.Min, h.Max)
		}
	}
	if total != h.Count {
		t.Fatalf("bucket counts sum to %d, histogram count %d", total, h.Count)
	}
}

func TestSimNanos(t *testing.T) {
	if got := SimNanos(1); got != 1_000_000_000 {
		t.Fatalf("SimNanos(1) = %d", got)
	}
	if got := SimNanos(-3); got != 0 {
		t.Fatalf("SimNanos(-3) = %d, want 0", got)
	}
	if got := SimNanos(0.25e-9); got != 0 {
		t.Fatalf("sub-ns SimNanos = %d, want 0", got)
	}
	if got := SimNanos(math.Inf(1)); got != math.MaxInt64 {
		t.Fatalf("SimNanos(+Inf) = %d, want MaxInt64", got)
	}
	if got := SimNanos(1e15); got != math.MaxInt64 {
		t.Fatalf("overflowing SimNanos = %d, want clamp", got)
	}
}

func TestDeterministicFiltersWallAndGauges(t *testing.T) {
	c := NewCollector()
	c.Count("core.cache.hit", 4)
	c.Count("parallel.stream.emitwait.wall_ns", 123)
	c.Observe("dist.op.gemm.sim_ns", 10)
	c.Observe("parallel.stream.chunk.wall_ns", 99)
	c.SetGauge("test.utilization", 0.8)

	d := c.Snapshot().Deterministic()
	if len(d.Counters) != 1 || d.Counters[0].Name != "core.cache.hit" {
		t.Fatalf("deterministic counters: %+v", d.Counters)
	}
	if len(d.Histograms) != 1 || d.Histograms[0].Name != "dist.op.gemm.sim_ns" {
		t.Fatalf("deterministic histograms: %+v", d.Histograms)
	}
	if len(d.Gauges) != 0 {
		t.Fatalf("gauges survived Deterministic: %+v", d.Gauges)
	}
}

func TestWriteMetricsFormat(t *testing.T) {
	c := NewCollector()
	c.Count("a.counter", 7)
	c.Observe("b.hist", 5)
	var buf bytes.Buffer
	if err := c.Snapshot().WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "counter a.counter") || !strings.Contains(out, "count=1 sum=5 min=5 max=5 mean=5") {
		t.Fatalf("metrics dump:\n%s", out)
	}
}

func TestSpansExportToChromeTrace(t *testing.T) {
	c := NewCollector()
	outer := c.Start("study")
	lane := c.Lane("stream-worker 0")
	sp := lane.StartIndexed("chunk", 3)
	if d := sp.End(); d < 0 {
		t.Fatalf("negative span duration %v", d)
	}
	outer.End()
	// Lane dedup: same name must map to the same tid.
	if again := c.Lane("stream-worker 0"); again.tid != lane.tid {
		t.Fatalf("lane not deduplicated: %d vs %d", again.tid, lane.tid)
	}

	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	var names []string
	for _, e := range events {
		names = append(names, e["name"].(string))
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"process_name", "thread_name", "chunk 3", "study"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("trace missing %q: %s", want, joined)
		}
	}
}

// TestSpanLogBounded pins the span bound a long-lived daemon relies
// on: past MaxSpans, End still measures but only counts the span, and
// the stored log still exports as a valid Chrome trace.
func TestSpanLogBounded(t *testing.T) {
	const k = 5
	c := NewCollector()
	lane := c.Lane("w")
	for i := 0; i < MaxSpans+k; i++ {
		if d := lane.Start("s").End(); d < 0 {
			t.Fatalf("span %d: negative duration %v", i, d)
		}
	}
	if len(c.spans) != MaxSpans {
		t.Fatalf("stored %d spans, want MaxSpans = %d", len(c.spans), MaxSpans)
	}
	if got, _ := c.Snapshot().Counter(droppedSpans); got != k {
		t.Fatalf("%s = %d, want %d", droppedSpans, got, k)
	}
	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("bounded trace is not valid JSON: %v", err)
	}
	// process_name plus the "main" and "w" thread names.
	if want := MaxSpans + 3; len(events) != want {
		t.Fatalf("trace has %d events, want %d", len(events), want)
	}
}

func TestNilCollectorIsSafe(t *testing.T) {
	var c *Collector
	c.Count("x", 1)
	c.SetGauge("g", 1)
	c.Observe("h", 1)
	lane := c.Lane("w")
	sp := lane.Start("s")
	if d := sp.End(); d != 0 {
		t.Fatalf("nil-collector span duration %v, want 0", d)
	}
	if s := c.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatalf("nil snapshot not empty: %+v", s)
	}
	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("nil trace invalid JSON: %v", err)
	}
}

// TestDisabledSpanHotPathZeroAllocs is the ISSUE's hot-path guarantee:
// with no active collector, the full per-chunk instrumentation sequence
// of the sweep engine (lane lookup, indexed span, observation, count)
// allocates nothing.
func TestDisabledSpanHotPathZeroAllocs(t *testing.T) {
	Enable(nil)
	allocs := testing.AllocsPerRun(200, func() {
		tel := Active()
		lane := tel.Lane("stream-worker 0")
		sp := lane.StartIndexed("chunk", 17)
		tel.Observe("parallel.stream.chunk.wall_ns", int64(sp.End()))
		tel.Count("parallel.stream.calls", 1)
		root := tel.Start("study")
		root.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled telemetry hot path allocates %.1f per run, want 0", allocs)
	}
}

func TestConcurrentCollection(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lane := c.Lane("w")
			for i := 0; i < 100; i++ {
				sp := lane.StartIndexed("t", i)
				c.Count("n", 1)
				c.Observe("h", int64(i))
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	s := c.Snapshot()
	if s.Counters[0].Value != 800 {
		t.Fatalf("counter = %d, want 800", s.Counters[0].Value)
	}
	if s.Histograms[0].Count != 800 {
		t.Fatalf("histogram count = %d, want 800", s.Histograms[0].Count)
	}
}
