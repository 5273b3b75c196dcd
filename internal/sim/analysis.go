package sim

import "twocs/internal/units"

// This file summarises a run for the paper's end-to-end case study
// (Fig 14): the makespan, the executed time of every (device, stream)
// lane, and the communication time each comm lane leaves exposed.

// Summary is what the iteration reports read from one run.
// Program.Summarize and RunState.Summary compute it straight from the
// run state: no Trace, no span copies, no sort.
type Summary struct {
	// Makespan is the completion time of the last op.
	Makespan units.Seconds
	// Lanes holds one entry per (device, stream) lane, sorted by
	// (device, stream).
	Lanes []LaneSummary
}

// LaneSummary is one (device, stream) lane of a Summary.
type LaneSummary struct {
	Device int
	Stream Stream
	// Executed sums the lane's executed (possibly stretched) op
	// durations.
	Executed units.Seconds
	// Exposed is the comm time the lane adds to the device's critical
	// path. On a CommStream lane it is the busy time during which the
	// device's compute lane idled; on a DPCommStream lane, the busy
	// time covered by neither compute nor the CommStream lane (time
	// under a concurrent TP all-reduce is attributed to the serialized
	// stream, not double-counted). It is 0 on every other lane.
	Exposed units.Seconds
}

// Lane returns the summary of one (device, stream) lane, or the zero
// LaneSummary when the schedule has no op there.
func (s *Summary) Lane(device int, stream Stream) LaneSummary {
	for _, l := range s.Lanes {
		if l.Device == device && l.Stream == stream {
			return l
		}
	}
	return LaneSummary{}
}

// Summary summarises the state's last run (RunReuse or Summarize), or
// returns nil when that run failed or there was none. The result lives
// in st and is overwritten by the next call.
func (st *RunState) Summary() *Summary {
	if !st.ok {
		return nil
	}
	p := st.owner
	if st.busy == nil {
		st.busy = make([]interval, p.NumOps())
		st.busyOff = make([]int32, len(p.queues)+1)
		st.cover = make([]interval, 0, p.NumOps())
		st.summary.Lanes = make([]LaneSummary, len(p.queues))
	}
	s := &st.summary
	s.Makespan = 0
	for _, end := range st.endAt {
		if units.Seconds(end) > s.Makespan {
			s.Makespan = units.Seconds(end)
		}
	}
	// A lane is an in-order FIFO, so its ops' busy intervals already
	// ascend: merging them needs no sort.
	n := int32(0)
	for q := range p.queues {
		lane := &p.queues[q]
		st.busyOff[q] = n
		var executed units.Seconds
		for _, i := range lane.ops {
			lo, hi := st.startAt[i], st.endAt[i]
			executed += units.Seconds(hi) - units.Seconds(lo)
			if hi <= lo {
				continue
			}
			if n > st.busyOff[q] && lo <= st.busy[n-1].hi {
				if hi > st.busy[n-1].hi {
					st.busy[n-1].hi = hi
				}
			} else {
				st.busy[n] = interval{lo, hi}
				n++
			}
		}
		s.Lanes[q] = LaneSummary{Device: lane.dev, Stream: lane.stream, Executed: executed}
	}
	st.busyOff[len(p.queues)] = n
	for q := range p.queues {
		lane := &p.queues[q]
		var cover []interval
		switch lane.stream {
		case CommStream:
			cover = st.laneBusy(lane.compute)
		case DPCommStream:
			st.cover = union(st.cover[:0], st.laneBusy(lane.compute), st.laneBusy(lane.comm))
			cover = st.cover
		default:
			continue
		}
		own := st.laneBusy(int32(q))
		s.Lanes[q].Exposed = units.Seconds(totalLen(own) - intersect(cover, own))
	}
	return s
}

// laneBusy returns lane q's merged busy intervals; none for q < 0.
func (st *RunState) laneBusy(q int32) []interval {
	if q < 0 {
		return nil
	}
	return st.busy[st.busyOff[q]:st.busyOff[q+1]]
}

// interval is a half-open busy interval [lo, hi).
type interval struct{ lo, hi float64 }

// union appends to dst the union of two disjoint ascending interval
// sets as one disjoint ascending set, joining intervals that touch: a
// linear merge of the two lists.
func union(dst, a, b []interval) []interval {
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var cur interval
		if j == len(b) || i < len(a) && a[i].lo <= b[j].lo {
			cur = a[i]
			i++
		} else {
			cur = b[j]
			j++
		}
		if n := len(dst); n > 0 && cur.lo <= dst[n-1].hi {
			if cur.hi > dst[n-1].hi {
				dst[n-1].hi = cur.hi
			}
		} else {
			dst = append(dst, cur)
		}
	}
	return dst
}

func totalLen(iv []interval) float64 {
	s := 0.0
	for _, v := range iv {
		s += v.hi - v.lo
	}
	return s
}

// intersect returns the total overlap length between two disjoint
// ascending interval sets.
func intersect(a, b []interval) float64 {
	i, j, s := 0, 0, 0.0
	for i < len(a) && j < len(b) {
		lo := max64(a[i].lo, b[j].lo)
		hi := min64(a[i].hi, b[j].hi)
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

func max64(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
