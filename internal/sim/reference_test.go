package sim

import (
	"fmt"
	"math"
	"sort"

	"twocs/internal/units"
)

// referenceRun is the pre-compilation event engine, kept verbatim as
// the differential-testing oracle: Compile+Program.RunReuse must reproduce
// its traces (spans, makespan, errors) bit-for-bit. Any divergence is a
// bug in the compiled fast path, not a tolerated approximation.
func referenceRun(ops []Op, cfg Config) (*Trace, error) {
	if len(ops) == 0 {
		return &Trace{}, nil
	}
	slow := cfg.InterferenceSlowdown
	if slow < 1 {
		slow = 1
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}

	type opState struct {
		op        Op
		remaining float64
		started   bool
		startAt   float64
		done      bool
		endAt     float64
	}
	states := make([]*opState, len(ops))
	byID := make(map[string]*opState, len(ops))
	for i, op := range ops {
		if op.ID == "" {
			return nil, fmt.Errorf("sim: op %d has empty ID", i)
		}
		if op.Device < 0 {
			return nil, fmt.Errorf("sim: op %q has negative device", op.ID)
		}
		if op.Duration < 0 || math.IsNaN(float64(op.Duration)) || math.IsInf(float64(op.Duration), 0) {
			return nil, fmt.Errorf("sim: op %q has invalid duration %v", op.ID, op.Duration)
		}
		if _, dup := byID[op.ID]; dup {
			return nil, fmt.Errorf("sim: duplicate op ID %q", op.ID)
		}
		st := &opState{op: op, remaining: float64(op.Duration)}
		states[i] = st
		byID[op.ID] = st
	}
	for _, st := range states {
		for _, d := range st.op.Deps {
			if _, ok := byID[d]; !ok {
				return nil, fmt.Errorf("sim: op %q depends on unknown op %q", st.op.ID, d)
			}
		}
	}

	type queueKey struct {
		dev    int
		stream Stream
	}
	queues := make(map[queueKey][]*opState)
	var keys []queueKey
	for _, st := range states {
		k := queueKey{st.op.Device, st.op.Stream}
		if _, ok := queues[k]; !ok {
			keys = append(keys, k)
		}
		queues[k] = append(queues[k], st)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].dev != keys[j].dev {
			return keys[i].dev < keys[j].dev
		}
		return keys[i].stream < keys[j].stream
	})

	depsDone := func(st *opState) bool {
		for _, d := range st.op.Deps {
			if !byID[d].done {
				return false
			}
		}
		return true
	}

	running := make(map[queueKey]*opState)
	now := 0.0
	remainingOps := len(states)

	rate := func(k queueKey) float64 {
		r := 1 / cfg.Faults.factor(k.dev, k.stream)
		if slow <= 1 {
			return r
		}
		if k.stream == ComputeStream {
			for _, s := range []Stream{CommStream, DPCommStream} {
				if _, busy := running[queueKey{k.dev, s}]; busy {
					return r / slow
				}
			}
			return r
		}
		if _, busy := running[queueKey{k.dev, ComputeStream}]; busy {
			return r / slow
		}
		return r
	}

	for remainingOps > 0 {
		progressed := true
		for progressed {
			progressed = false
			for _, k := range keys {
				if _, busy := running[k]; busy {
					continue
				}
				q := queues[k]
				if len(q) == 0 {
					continue
				}
				head := q[0]
				if !depsDone(head) {
					continue
				}
				head.started = true
				head.startAt = now
				running[k] = head
				queues[k] = q[1:]
				progressed = true
			}
		}

		if len(running) == 0 {
			var stuck []string
			for _, k := range keys {
				for _, st := range queues[k] {
					stuck = append(stuck, st.op.ID)
				}
			}
			sort.Strings(stuck)
			return nil, fmt.Errorf("sim: deadlock, %d ops blocked: %v", len(stuck), stuck)
		}

		dt := math.Inf(1)
		for k, st := range running {
			r := rate(k)
			if need := st.remaining / r; need < dt {
				dt = need
			}
		}
		if math.IsInf(dt, 1) {
			dt = 0
		}
		for k, st := range running {
			st.remaining -= dt * rate(k)
		}
		now += dt
		for k, st := range running {
			if st.remaining <= 1e-18 {
				st.remaining = 0
				st.done = true
				st.endAt = now
				delete(running, k)
				remainingOps--
			}
		}
	}

	tr := &Trace{Spans: make([]Span, 0, len(states))}
	for _, st := range states {
		tr.Spans = append(tr.Spans, Span{
			Op:    st.op,
			Start: units.Seconds(st.startAt),
			End:   units.Seconds(st.endAt),
		})
		if units.Seconds(st.endAt) > tr.Makespan {
			tr.Makespan = units.Seconds(st.endAt)
		}
	}
	sort.Slice(tr.Spans, func(i, j int) bool {
		if tr.Spans[i].Start < tr.Spans[j].Start {
			return true
		}
		if tr.Spans[i].Start > tr.Spans[j].Start {
			return false
		}
		return tr.Spans[i].Op.ID < tr.Spans[j].Op.ID
	})
	return tr, nil
}

// referenceCriticalPath is the pre-index CriticalPath implementation
// (it built its own span map per call), kept as the oracle for the
// shared-index rewrite.
func referenceCriticalPath(t *Trace) ([]CriticalStep, map[string]units.Seconds) {
	if len(t.Spans) == 0 {
		return nil, nil
	}
	byID := make(map[string]Span, len(t.Spans))
	var last Span
	for _, s := range t.Spans {
		byID[s.Op.ID] = s
		if s.End > last.End {
			last = s
		}
	}
	gate := func(cur Span) (Span, bool) {
		var best Span
		found := false
		consider := func(s Span) {
			if !found || s.End > best.End {
				best = s
				found = true
			}
		}
		for _, d := range cur.Op.Deps {
			consider(byID[d])
		}
		for _, s := range t.Spans {
			if s.Op.Device == cur.Op.Device && s.Op.Stream == cur.Op.Stream &&
				s.End <= cur.Start && s.Op.ID != cur.Op.ID {
				if !found || s.End > best.End {
					consider(s)
				}
			}
		}
		return best, found
	}

	var rev []CriticalStep
	cur := last
	for {
		pred, ok := gate(cur)
		wait := units.Seconds(0)
		if ok {
			wait = cur.Start - pred.End
			if wait < 0 {
				wait = 0
			}
		} else {
			wait = cur.Start
		}
		rev = append(rev, CriticalStep{Span: cur, Wait: wait})
		if !ok || cur.Start <= 0 {
			break
		}
		cur = pred
		if len(rev) > len(t.Spans) {
			break
		}
	}
	path := make([]CriticalStep, 0, len(rev))
	byLabel := make(map[string]units.Seconds)
	for i := len(rev) - 1; i >= 0; i-- {
		path = append(path, rev[i])
		byLabel[rev[i].Span.Op.Label] += rev[i].Span.Duration()
	}
	return path, byLabel
}
