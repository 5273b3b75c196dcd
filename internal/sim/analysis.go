package sim

import (
	"sort"

	"twocs/internal/units"
)

// This file provides trace analytics: busy-time accounting, per-label
// breakdowns, and the exposed communication time per comm stream that the
// paper's end-to-end case study (Fig 14) reports.

// interval is a half-open busy interval [lo, hi).
type interval struct{ lo, hi float64 }

// mergeIntervals unions overlapping intervals, returning a disjoint
// ascending set.
func mergeIntervals(iv []interval) []interval {
	if len(iv) == 0 {
		return nil
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	out := []interval{iv[0]}
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

func (t *Trace) streamIntervals(device int, stream Stream) []interval {
	var iv []interval
	for _, s := range t.Spans {
		if s.Op.Device == device && s.Op.Stream == stream && s.End > s.Start {
			iv = append(iv, interval{float64(s.Start), float64(s.End)})
		}
	}
	return mergeIntervals(iv)
}

// BusyTime returns the total busy time of one device stream.
func (t *Trace) BusyTime(device int, stream Stream) units.Seconds {
	return units.Seconds(totalLen(t.streamIntervals(device, stream)))
}

// ExposedCommOn returns the time one comm stream spent transferring while
// the device's compute stream idled — the per-stream exposure that lets
// callers separate serialized (TP) from overlapped (DP) communication.
func (t *Trace) ExposedCommOn(device int, stream Stream) units.Seconds {
	comm := t.streamIntervals(device, stream)
	comp := t.streamIntervals(device, ComputeStream)
	return units.Seconds(totalLen(comm) - intersect(comp, comm))
}

// ExposedDPComm returns the DP-comm time covered by neither compute nor
// the serialized comm stream — the *additional* critical-path time the
// overlapped collectives cause. Time under a concurrent TP all-reduce is
// attributed to the serialized stream, not double-counted here.
func (t *Trace) ExposedDPComm(device int) units.Seconds {
	dp := t.streamIntervals(device, DPCommStream)
	cover := mergeIntervals(append(t.streamIntervals(device, ComputeStream),
		t.streamIntervals(device, CommStream)...))
	return units.Seconds(totalLen(dp) - intersect(cover, dp))
}

// LabelTime sums executed duration per op label across all devices.
// The map is computed once per trace and shared across calls; callers
// must treat it as read-only.
func (t *Trace) LabelTime() map[string]units.Seconds {
	t.mu.Lock()
	if t.labels == nil {
		out := make(map[string]units.Seconds)
		for _, s := range t.Spans {
			out[s.Op.Label] += s.Duration()
		}
		t.labels = out
	}
	m := t.labels
	t.mu.Unlock()
	return m
}
