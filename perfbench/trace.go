package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"twocs/internal/stream"
	"twocs/internal/telemetry"
)

// This file is the traced run's instrumentation. It sits entirely
// outside the program: spans are recorded around calls into each
// layer's public functions, per-row calls are timed by wrapper sinks
// and a wrapper io.Writer, and HTTP handling by a middleware around
// serve.Server.Handler(). Spans stay in memory until the run ends.

// spanRec is one recorded span. Spans of one request or one pass share
// a Trace id. Count > 1 marks an aggregate: Count calls of the same
// function under one parent, with Dur their summed time, which keeps
// per-row instrumentation from recording millions of spans.
type spanRec struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	Count  int64  `json:"count"`
	// Self is Dur minus the time the span's children cover, filled in
	// when the spans are written.
	Self int64 `json:"self_ns"`
}

// tracer records spans. A nil *tracer records nothing, so untraced
// runs call through it unconditionally.
type tracer struct {
	epoch time.Time
	next  atomic.Int64

	mu    sync.Mutex
	spans []spanRec // guarded by mu
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

// id allocates a span id (0 on a nil tracer).
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// record stores a finished span with a pre-allocated id.
func (t *tracer) record(id, parent, trace int64, name string, start time.Time, dur time.Duration, count int64) {
	if t == nil {
		return
	}
	s := spanRec{ID: id, Parent: parent, Trace: trace, Name: name,
		Start: int64(start.Sub(t.epoch)), Dur: int64(dur), Count: count}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// span records a finished single call and returns its id.
func (t *tracer) span(parent, trace int64, name string, start time.Time, dur time.Duration) int64 {
	id := t.id()
	t.record(id, parent, trace, name, start, dur, 1)
	return id
}

// write dumps the spans as JSON, each with its self time; a nil tracer
// writes nothing.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64]int64{}
	for _, s := range t.spans {
		children[s.Parent] += s.Dur
	}
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].Dur - children[t.spans[i].ID]
	}
	b, err := json.Marshal(map[string][]spanRec{"spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// timedSink wraps a stream.Sink and accumulates the time spent inside
// its Emit and Close. The stream engine never calls a sink
// concurrently, so the counters need no lock.
type timedSink struct {
	inner stream.Sink
	rows  int64
	dur   time.Duration
}

func (s *timedSink) Emit(r stream.Row) error {
	t0 := time.Now()
	err := s.inner.Emit(r)
	s.dur += time.Since(t0)
	s.rows++
	return err
}

func (s *timedSink) Close(t stream.Trailer) error {
	t0 := time.Now()
	err := s.inner.Close(t)
	s.dur += time.Since(t0)
	return err
}

// total is the time spent inside the wrapped sink.
func (s *timedSink) total() time.Duration { return s.dur }

// recordUnder stores the sink's accumulated time as an aggregate child
// span of parent and returns its id.
func (s *timedSink) recordUnder(t *tracer, parent, trace int64, name string, start time.Time) int64 {
	id := t.id()
	t.record(id, parent, trace, name, start, s.total(), s.rows+1)
	return id
}

// timedWriter wraps an io.Writer and accumulates write time, calls and
// bytes.
type timedWriter struct {
	w     io.Writer
	calls int64
	bytes int64
	dur   time.Duration
}

func (w *timedWriter) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := w.w.Write(p)
	w.dur += time.Since(t0)
	w.calls++
	w.bytes += int64(n)
	return n, err
}

// handled is one request as the timing middleware saw it.
type handled struct {
	path   string
	status int
	cache  string
	dur    time.Duration
}

// traceHeader carries a traced request's trace id from the benchmark's
// client to the timing middleware. Requests without it pass through
// untimed, so one daemon serves traced and untraced requests side by
// side.
const traceHeader = "X-Perfbench-Trace"

// timingMiddleware times every traced request through next, from
// handler entry to handler return, with the status and X-Twocsd-Cache
// header it answered with.
type timingMiddleware struct {
	next http.Handler
	tr   *tracer

	mu   sync.Mutex
	seen []handled // guarded by mu
}

func (m *timingMiddleware) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	trace, err := strconv.ParseInt(r.Header.Get(traceHeader), 10, 64)
	if err != nil {
		m.next.ServeHTTP(w, r)
		return
	}
	rw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	t0 := time.Now()
	m.next.ServeHTTP(rw, r)
	d := time.Since(t0)
	h := handled{path: r.URL.Path, status: rw.status, cache: rw.Header().Get("X-Twocsd-Cache"), dur: d}
	m.tr.span(0, trace, "serve.Handler "+r.URL.Path, t0, d)
	m.mu.Lock()
	m.seen = append(m.seen, h)
	m.mu.Unlock()
}

// requests returns a copy of what the middleware has seen so far.
func (m *timingMiddleware) requests() []handled {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]handled(nil), m.seen...)
}

// statusWriter captures the status code and keeps the wrapped
// writer's Flush, which the sweep handler needs to stream chunks.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// memoCounters sums the hit and miss counters that the program's
// memos already publish, over the collectors a traced run enabled.
type memoCounters map[string]int64

var memoNames = []string{
	"opmodel.projcache", "model.opscache", "core.substrate", "serve.cache",
}

func (m memoCounters) add(col *telemetry.Collector) {
	snap := col.Snapshot()
	for _, n := range memoNames {
		for _, kind := range []string{".hit", ".miss"} {
			v, _ := snap.Counter(n + kind)
			m[n+kind] += v
		}
	}
}

// report stores each memo's hit ratio as a per-layer metric.
func (m memoCounters) report(layer map[string]float64) {
	for _, n := range memoNames {
		hit, miss := m[n+".hit"], m[n+".miss"]
		if hit+miss > 0 {
			layer[n+"_hit_ratio"] = float64(hit) / float64(hit+miss)
		}
	}
}
