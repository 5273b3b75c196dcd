package sim

import (
	"sort"

	"twocs/internal/units"
)

// This file holds the trace analytics that Summary replaced in
// production: busy time, per-label sums and per-stream exposure read
// off a sorted Trace. They stay as the summary's oracle (see
// TestSummaryMatchesTraceAnalytics and FuzzSummaryDifferential).

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
// the device's compute stream idled.
func (t *Trace) ExposedCommOn(device int, stream Stream) units.Seconds {
	comm := t.streamIntervals(device, stream)
	comp := t.streamIntervals(device, ComputeStream)
	return units.Seconds(totalLen(comm) - intersect(comp, comm))
}

// ExposedDPComm returns the DP-comm time covered by neither compute nor
// the serialized comm stream.
func (t *Trace) ExposedDPComm(device int) units.Seconds {
	dp := t.streamIntervals(device, DPCommStream)
	cover := mergeIntervals(append(t.streamIntervals(device, ComputeStream),
		t.streamIntervals(device, CommStream)...))
	return units.Seconds(totalLen(dp) - intersect(cover, dp))
}

// LabelTime sums executed duration per op label across all devices.
func (t *Trace) LabelTime() map[string]units.Seconds {
	out := make(map[string]units.Seconds)
	for _, s := range t.Spans {
		out[s.Op.Label] += s.Duration()
	}
	return out
}
