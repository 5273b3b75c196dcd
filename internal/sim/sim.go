// Package sim is a discrete-event execution engine for distributed
// training schedules. Each device exposes two in-order streams — one for
// compute kernels, one for communication — matching the GPU-stream
// execution model distributed frameworks build on: DP gradient all-reduce
// runs on the comm stream asynchronously with backprop compute (paper
// Fig 3a), while TP all-reduces serialize against compute through
// dependencies (Fig 3b).
//
// Durations are inputs: the kernels and collective packages price each
// operation, and the engine resolves ordering, overlap and (optionally)
// compute/communication interference — the §4.3.7 effect where concurrent
// compute and communication slow each other down on a shared device.
package sim

import (
	"fmt"
	"math"

	"twocs/internal/units"
)

// Stream identifies which of a device's two in-order queues an op runs on.
type Stream int

// The streams of every device. ComputeStream runs kernels; CommStream
// carries serialized (tensor-parallel) collectives; DPCommStream carries
// the asynchronous data-parallel gradient collectives so they cannot
// head-of-line-block the serialized ones — mirroring the separate process
// groups/streams real frameworks dedicate to each.
const (
	ComputeStream Stream = iota
	CommStream
	DPCommStream
)

// IsComm reports whether the stream carries communication.
func (s Stream) IsComm() bool { return s == CommStream || s == DPCommStream }

// String names the stream.
func (s Stream) String() string {
	switch s {
	case ComputeStream:
		return "compute"
	case CommStream:
		return "comm"
	case DPCommStream:
		return "dp-comm"
	default:
		return fmt.Sprintf("Stream(%d)", int(s))
	}
}

// Op is one schedulable unit of work.
type Op struct {
	// ID must be unique within a schedule.
	ID string
	// Device is the executing device index (>=0).
	Device int
	// Stream selects the device queue.
	Stream Stream
	// Duration is the op's standalone execution time.
	Duration units.Seconds
	// Deps lists op IDs that must complete before this op starts.
	Deps []string
	// Label is a free-form grouping tag ("fwd-gemm", "tp-allreduce",
	// "dp-allreduce", ...) used by breakdowns.
	Label string
}

// Span records one executed op.
type Span struct {
	Op    Op
	Start units.Seconds
	End   units.Seconds
}

// Duration returns the executed (possibly interference-stretched) time.
func (s Span) Duration() units.Seconds { return s.End - s.Start }

// Config tunes the engine.
type Config struct {
	// InterferenceSlowdown stretches compute and comm that execute
	// concurrently on one device: while both streams are busy, each
	// progresses at 1/InterferenceSlowdown of its standalone rate.
	// 1 (or 0) means no interference.
	InterferenceSlowdown float64
	// Faults injects partial hardware failures (straggler device,
	// fabric-wide comm derating); the zero value is healthy.
	Faults Faults
}

// validate rejects a configuration the engine cannot run: invalid
// faults, a non-finite or NaN InterferenceSlowdown, or slowdowns whose
// combined factor overflows. A lane's rate is 1 over the product of
// the factors that apply to it; an infinite product makes the rate 0,
// and a lane at rate 0 never finishes its op.
func (c Config) validate() error {
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	slow := c.InterferenceSlowdown
	if math.IsNaN(slow) || math.IsInf(slow, 0) {
		return fmt.Errorf("sim: interference slowdown %v invalid (want finite)", slow)
	}
	f := c.Faults
	if p := max(f.StragglerSlowdown, 1) * max(f.CommSlowdown, 1) * max(slow, 1); math.IsInf(p, 0) {
		return fmt.Errorf("sim: straggler %v x comm %v x interference %v slowdown overflows",
			f.StragglerSlowdown, f.CommSlowdown, slow)
	}
	return nil
}

// Trace is the result of running a schedule.
type Trace struct {
	Spans []Span
	// Makespan is the completion time of the last op.
	Makespan units.Seconds
}

// resize prepares the trace for reuse by Program.RunReuse: Spans is
// re-sliced to n ops (reusing its backing array whenever it is large
// enough) and the makespan is cleared.
func (t *Trace) resize(n int) {
	if cap(t.Spans) < n {
		t.Spans = make([]Span, n)
	} else {
		t.Spans = t.Spans[:n]
	}
	t.Makespan = 0
}
