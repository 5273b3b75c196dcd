package dist

import (
	"sort"

	"twocs/internal/sim"
	"twocs/internal/units"
)

// This file holds the uncompiled schedule and the trace-based report
// that production replaced with CompileIteration and the run summary.
// They stay as oracles: TestCompileIterationMatchesBuild and
// TestReportMatchesTraceOracle check the production paths against them.

// BuildIteration builds the simulator schedule of one full training
// iteration (all layers, forward and backward) as observed by one
// representative device, pricing every op on its own through
// Timer.Time — the per-op pricing, and telemetry, that price classes
// replaced.
func BuildIteration(p Plan, timer *Timer, opts ScheduleOptions) ([]sim.Op, error) {
	ops, pr, err := buildIteration(p, timer, opts)
	if err != nil {
		return nil, err
	}
	for i, k := range pr.opClass {
		if ops[i].Duration, err = timer.Time(pr.classes[k]); err != nil {
			return nil, err
		}
	}
	return ops, nil
}

// runOps executes a schedule once the way production re-times one:
// sim.Compile, then RunReuse over fresh scratch.
func runOps(ops []sim.Op, cfg sim.Config) (*sim.Trace, error) {
	p, err := sim.Compile(ops)
	if err != nil {
		return nil, err
	}
	durs := make([]units.Seconds, len(ops))
	for i, op := range ops {
		durs[i] = op.Duration
	}
	tr := &sim.Trace{}
	if err := p.RunReuse(p.NewState(), durs, cfg, tr); err != nil {
		return nil, err
	}
	return tr, nil
}

// SerializedCommFraction is exposed TP communication over the makespan —
// the paper's Figure 10/12 metric.
func (r IterationReport) SerializedCommFraction() float64 {
	return units.Ratio(float64(r.ExposedTPComm), float64(r.Makespan))
}

// reportFrom summarizes a simulated iteration trace.
func reportFrom(trace *sim.Trace) *IterationReport {
	labels := labelTime(trace)
	return &IterationReport{
		Makespan:      trace.Makespan,
		ComputeTime:   labels[LabelCompute],
		TPCommTime:    labels[LabelTPComm],
		DPCommTime:    labels[LabelDPComm],
		ExposedTPComm: exposedCommOn(trace, 0, sim.CommStream),
		ExposedDPComm: exposedDPComm(trace, 0),
	}
}

// span is a half-open busy interval [lo, hi).
type span struct{ lo, hi float64 }

// mergeSpans unions overlapping intervals into a disjoint ascending set.
func mergeSpans(iv []span) []span {
	if len(iv) == 0 {
		return nil
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	out := []span{iv[0]}
	for _, cur := range iv[1:] {
		last := &out[len(out)-1]
		if cur.lo <= last.hi {
			if cur.hi > last.hi {
				last.hi = cur.hi
			}
		} else {
			out = append(out, cur)
		}
	}
	return out
}

func streamSpans(t *sim.Trace, device int, stream sim.Stream) []span {
	var iv []span
	for _, s := range t.Spans {
		if s.Op.Device == device && s.Op.Stream == stream && s.End > s.Start {
			iv = append(iv, span{float64(s.Start), float64(s.End)})
		}
	}
	return mergeSpans(iv)
}

func spanLen(iv []span) float64 {
	s := 0.0
	for _, v := range iv {
		s += v.hi - v.lo
	}
	return s
}

// overlap returns the total overlap length of two disjoint ascending
// interval sets.
func overlap(a, b []span) float64 {
	i, j, s := 0, 0, 0.0
	for i < len(a) && j < len(b) {
		lo, hi := a[i].lo, a[i].hi
		if b[j].lo > lo {
			lo = b[j].lo
		}
		if b[j].hi < hi {
			hi = b[j].hi
		}
		if hi > lo {
			s += hi - lo
		}
		if a[i].hi < b[j].hi {
			i++
		} else {
			j++
		}
	}
	return s
}

// busyTime returns the total busy time of one device stream.
func busyTime(t *sim.Trace, device int, stream sim.Stream) units.Seconds {
	return units.Seconds(spanLen(streamSpans(t, device, stream)))
}

// exposedCommOn returns the time one comm stream spent transferring
// while the device's compute stream idled.
func exposedCommOn(t *sim.Trace, device int, stream sim.Stream) units.Seconds {
	comm := streamSpans(t, device, stream)
	comp := streamSpans(t, device, sim.ComputeStream)
	return units.Seconds(spanLen(comm) - overlap(comp, comm))
}

// exposedDPComm returns the DP-comm time covered by neither compute nor
// the serialized comm stream.
func exposedDPComm(t *sim.Trace, device int) units.Seconds {
	dp := streamSpans(t, device, sim.DPCommStream)
	cover := mergeSpans(append(streamSpans(t, device, sim.ComputeStream),
		streamSpans(t, device, sim.CommStream)...))
	return units.Seconds(spanLen(dp) - overlap(cover, dp))
}

// labelTime sums executed duration per op label across all devices.
func labelTime(t *sim.Trace) map[string]units.Seconds {
	out := make(map[string]units.Seconds)
	for _, s := range t.Spans {
		out[s.Op.Label] += s.Duration()
	}
	return out
}
