package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"
)

// This file implements wall-clock spans and their export in the Chrome
// trace-event JSON format — the same format internal/sim emits for the
// simulated cluster, so a run of the tool and a run of its simulated
// workload open in the same Perfetto UI. Lanes map to trace threads:
// lane 0 is the main goroutine, and the sweep engine allocates one
// lane per worker, which is what makes worker utilization visible.
//
// (The file is named chrometrace.go deliberately: the detrange
// analyzer designates files of this name determinism-critical.)

// Lane identifies one trace thread of a collector. The zero Lane (and
// any Lane of a nil collector) discards spans at zero cost.
type Lane struct {
	c   *Collector
	tid int
}

// Lane returns the lane with the given name, creating it on first use.
// Lanes are deduplicated by name, so repeated sweeps reuse their
// workers' lanes instead of growing the thread list.
func (c *Collector) Lane(name string) Lane {
	if c == nil {
		return Lane{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	tid, ok := c.laneIDs[name]
	if !ok {
		tid = len(c.lanes)
		c.laneIDs[name] = tid
		c.lanes = append(c.lanes, name)
	}
	return Lane{c: c, tid: tid}
}

// Span is one in-flight wall-clock measurement. It is a small value —
// starting and ending a span on a disabled collector allocates nothing.
type Span struct {
	lane  Lane
	name  string
	start time.Duration
}

// Start begins a span on the collector's main lane (lane 0). Use the
// `defer c.Start("name").End()` idiom to bracket a whole function; the
// span argument is evaluated immediately, the End runs at return.
func (c *Collector) Start(name string) Span {
	if c == nil {
		return Span{}
	}
	return Lane{c: c, tid: 0}.Start(name)
}

// Start begins a span on this lane.
func (l Lane) Start(name string) Span {
	if l.c == nil {
		return Span{}
	}
	return Span{lane: l, name: name, start: l.c.since()}
}

// StartIndexed begins a span named "<name> <i>". The name is only
// materialized when the lane records, keeping the disabled path
// allocation-free — the property the sweep engine's per-task
// instrumentation relies on.
func (l Lane) StartIndexed(name string, i int) Span {
	if l.c == nil {
		return Span{}
	}
	return l.Start(name + " " + strconv.Itoa(i))
}

// MaxSpans bounds the finished spans a collector stores. A long-lived
// daemon keeps one collector for its whole life, so an unbounded span
// log would grow with every request it serves; at this bound the log
// holds a few MB at most. A 10⁶-row streamed sweep records one span per
// 512-row chunk and stays well under it.
const MaxSpans = 1 << 16

// droppedSpans counts the spans End measured but did not store because
// the collector already held MaxSpans.
const droppedSpans = "telemetry.spans.dropped"

// End finishes the span, records it, and returns its wall duration
// (zero for a span of a disabled collector). Once the collector holds
// MaxSpans spans, End still measures but counts the span in
// telemetry.spans.dropped instead of storing it.
func (s Span) End() time.Duration {
	c := s.lane.c
	if c == nil {
		return 0
	}
	d := c.since() - s.start
	c.mu.Lock()
	if len(c.spans) < MaxSpans {
		c.spans = append(c.spans, finishedSpan{name: s.name, tid: s.lane.tid, start: s.start, dur: d})
	} else {
		c.counters[droppedSpans]++
	}
	c.mu.Unlock()
	return d
}

// finishedSpan is one recorded span; fields are guarded by the owning
// Collector's mu.
type finishedSpan struct {
	name  string
	tid   int
	start time.Duration
	dur   time.Duration
}

// traceEvent is one Chrome trace-event entry: ph=X complete events for
// spans, ph=M metadata events naming the process and threads. Ts and
// Dur are microseconds, per the trace-event spec.
type traceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// WriteChromeTrace writes every finished span as a Chrome trace-event
// JSON array: the tool is process 0, lanes are threads, and span
// nesting falls out of timestamp containment (Perfetto renders a span
// enclosed by another on the same lane as its child). Spans still in
// flight when this is called are not exported.
func (c *Collector) WriteChromeTrace(w io.Writer) error {
	if c == nil {
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	c.mu.Lock()
	lanes := append([]string(nil), c.lanes...)
	spans := append([]finishedSpan(nil), c.spans...)
	c.mu.Unlock()

	events := make([]traceEvent, 0, len(lanes)+len(spans)+1)
	events = append(events, traceEvent{
		Name: "process_name", Ph: "M",
		Args: map[string]string{"name": "twocs"},
	})
	for tid, name := range lanes {
		events = append(events, traceEvent{
			Name: "thread_name", Ph: "M", TID: tid,
			Args: map[string]string{"name": name},
		})
	}
	for _, s := range spans {
		events = append(events, traceEvent{
			Name: s.name,
			Cat:  "telemetry",
			Ph:   "X",
			Ts:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(s.dur) / float64(time.Microsecond),
			TID:  s.tid,
		})
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(events); err != nil {
		return fmt.Errorf("telemetry: encoding chrome trace: %w", err)
	}
	return nil
}
