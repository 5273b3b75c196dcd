package sim

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"twocs/internal/units"
)

// This file renders traces for humans: an ASCII Gantt chart (one row per
// device stream) and a critical-path walk, used by the CLI and examples
// to show *where* an iteration's time goes.

// ganttGlyph maps stream kinds to fill characters.
func ganttGlyph(s Stream) rune {
	switch s {
	case ComputeStream:
		return '#'
	case CommStream:
		return '='
	case DPCommStream:
		return '~'
	default:
		return '?'
	}
}

// RenderGantt writes an ASCII Gantt chart of the trace, `width` columns
// wide. Each device stream gets one row; '#' is compute, '=' serialized
// comm, '~' overlapped (DP) comm.
func (t *Trace) RenderGantt(w io.Writer, width int) error {
	if width < 10 {
		return fmt.Errorf("sim: gantt width %d too small", width)
	}
	if len(t.Spans) == 0 || t.Makespan <= 0 {
		_, err := fmt.Fprintln(w, "(empty trace)")
		return err
	}
	type rowKey struct {
		dev    int
		stream Stream
	}
	rows := make(map[rowKey][]Span)
	var keys []rowKey
	for _, s := range t.Spans {
		k := rowKey{s.Op.Device, s.Op.Stream}
		if _, ok := rows[k]; !ok {
			keys = append(keys, k)
		}
		rows[k] = append(rows[k], s)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].dev != keys[j].dev {
			return keys[i].dev < keys[j].dev
		}
		return keys[i].stream < keys[j].stream
	})
	scale := float64(width) / float64(t.Makespan)
	for _, k := range keys {
		line := make([]rune, width)
		for i := range line {
			line[i] = '.'
		}
		for _, s := range rows[k] {
			lo := int(float64(s.Start) * scale)
			hi := int(float64(s.End) * scale)
			if hi <= lo {
				hi = lo + 1 // zero-width spans still get one cell
			}
			for i := lo; i < hi && i < width; i++ {
				line[i] = ganttGlyph(k.stream)
			}
		}
		label := fmt.Sprintf("dev%-2d %-8s", k.dev, k.stream)
		if _, err := fmt.Fprintf(w, "  %s |%s|\n", label, string(line)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "  %-14s 0%s%v\n", "", strings.Repeat(" ", width-1), t.Makespan)
	return err
}

// CriticalStep is one hop of a trace's critical path.
type CriticalStep struct {
	Span Span
	// Wait is idle time between this span's start and the previous
	// step's end (scheduling or stream-ordering delay).
	Wait units.Seconds
}

// CriticalPath walks backwards from the last-finishing op, at each step
// moving to the latest-finishing predecessor (dependency or same-stream
// predecessor) that gated its start. It returns the path in execution
// order together with the share of the makespan each label contributes.
func (t *Trace) CriticalPath() ([]CriticalStep, map[string]units.Seconds) {
	if len(t.Spans) == 0 {
		return nil, nil
	}
	byID := make(map[string]Span, len(t.Spans))
	for _, s := range t.Spans {
		byID[s.Op.ID] = s
	}
	var last Span
	for _, s := range t.Spans {
		if s.End > last.End {
			last = s
		}
	}
	// gate returns the predecessor span that finished latest before
	// cur started (among declared deps and the same-stream predecessor).
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
					// Only the immediately preceding same-stream span
					// can gate an in-order stream.
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
			break // defensive: malformed trace
		}
	}
	// Reverse into execution order and accumulate label shares.
	path := make([]CriticalStep, 0, len(rev))
	byLabel := make(map[string]units.Seconds)
	for i := len(rev) - 1; i >= 0; i-- {
		path = append(path, rev[i])
		byLabel[rev[i].Span.Op.Label] += rev[i].Span.Duration()
	}
	return path, byLabel
}
