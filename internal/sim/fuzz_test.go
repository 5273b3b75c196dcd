package sim

import (
	"fmt"
	"testing"

	"twocs/internal/units"
)

// FuzzRunWellFormed builds pseudo-random (but always acyclic) schedules
// and checks the engine's invariants: no stream overlap, deps respected,
// makespan bounded by the serial sum.
func FuzzRunWellFormed(f *testing.F) {
	f.Add(uint8(5), uint8(2), uint8(3), false)
	f.Add(uint8(12), uint8(1), uint8(7), true)
	f.Add(uint8(1), uint8(3), uint8(0), false)
	f.Fuzz(func(t *testing.T, count, devs, depStride uint8, interfere bool) {
		n := int(count)%24 + 1
		d := int(devs)%3 + 1
		ops := make([]Op, n)
		serial := 0.0
		for i := range ops {
			dur := float64(i%7) + 0.5
			serial += dur
			ops[i] = Op{
				ID:       fmt.Sprintf("op%d", i),
				Device:   i % d,
				Stream:   Stream(i % 3),
				Duration: units.Seconds(dur),
			}
			// Deps always point strictly backwards: acyclic by
			// construction (stream deadlocks remain possible and are
			// acceptable engine errors).
			if depStride > 0 && i >= int(depStride) {
				ops[i].Deps = []string{fmt.Sprintf("op%d", i-int(depStride))}
			}
		}
		cfg := Config{}
		if interfere {
			cfg.InterferenceSlowdown = 1.7
		}
		tr, err := runOps(ops, cfg)
		if err != nil {
			// Deadlock via stream head-of-line ordering is a legal
			// detection outcome, not a bug.
			return
		}
		if !interfere && float64(tr.Makespan) > serial+1e-9 {
			t.Fatalf("makespan %v exceeds serial bound %v", tr.Makespan, serial)
		}
		byID := make(map[string]Span)
		for _, s := range tr.Spans {
			byID[s.Op.ID] = s
		}
		for _, s := range tr.Spans {
			if s.End < s.Start {
				t.Fatalf("inverted span %+v", s)
			}
			for _, dep := range s.Op.Deps {
				if byID[dep].End > s.Start+1e-12 {
					t.Fatalf("op %s started before dep %s finished", s.Op.ID, dep)
				}
			}
			for _, o := range tr.Spans {
				if o.Op.ID == s.Op.ID || o.Op.Device != s.Op.Device || o.Op.Stream != s.Op.Stream {
					continue
				}
				if o.Start < s.End && s.Start < o.End {
					t.Fatalf("stream overlap: %s and %s", s.Op.ID, o.Op.ID)
				}
			}
		}
	})
}
