package dist

import (
	"math"
	"testing"

	"twocs/internal/model"
	"twocs/internal/sim"
	"twocs/internal/units"
)

func tpGroupPlan() Plan {
	p := testPlan(4, 1)
	p.Model.Layers = 2
	return p
}

func TestTPGroupMatchesFoldedSchedule(t *testing.T) {
	// The explicit per-rank group simulation (ring decomposed into
	// steps) and the folded single-device schedule (one priced AR op)
	// must agree on the forward makespan: with homogeneous ranks the
	// ring is lock-step, so decomposition changes nothing.
	p := tpGroupPlan()
	tm := newTimer(t, p)
	rep, err := SimulateTPGroupForward(p, tm, TPGroupOptions{StragglerRank: -1})
	if err != nil {
		t.Fatal(err)
	}

	// Folded reference: one device, forward ops in sequence, each AR a
	// single priced op — exactly what schedule.go builds.
	descs, err := model.LayerForwardOps(p.Model, p.TP)
	if err != nil {
		t.Fatal(err)
	}
	var perLayer units.Seconds
	for _, d := range descs {
		dur, err := tm.Time(d)
		if err != nil {
			t.Fatal(err)
		}
		perLayer += dur
	}
	folded := units.Seconds(float64(perLayer) * float64(p.Model.Layers))
	ratio := float64(rep.Makespan) / float64(folded)
	if math.Abs(ratio-1) > 0.02 {
		t.Errorf("explicit %v vs folded %v (ratio %.4f)", rep.Makespan, folded, ratio)
	}
}

func TestTPGroupStragglerSlowsEveryone(t *testing.T) {
	p := tpGroupPlan()
	tm := newTimer(t, p)
	clean, err := SimulateTPGroupForward(p, tm, TPGroupOptions{StragglerRank: -1})
	if err != nil {
		t.Fatal(err)
	}
	slowed, err := SimulateTPGroupForward(p, tm, TPGroupOptions{
		StragglerRank: 2, StragglerFactor: 1.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The ring synchronizes the group: one slow rank delays the whole
	// group's makespan, not just its own work.
	if float64(slowed.Makespan) < 1.2*float64(clean.Makespan) {
		t.Errorf("straggler barely hurt: %v vs %v", slowed.Makespan, clean.Makespan)
	}
	// And the straggler's own compute busy time is 1.5x its peers'.
	r := float64(slowed.PerRankCompute[2]) / float64(slowed.PerRankCompute[0])
	if math.Abs(r-1.5) > 1e-9 {
		t.Errorf("straggler compute ratio = %v, want 1.5", r)
	}
}

func TestTPGroupValidation(t *testing.T) {
	p := tpGroupPlan()
	tm := newTimer(t, p)
	if _, err := BuildTPGroupForward(p, nil, TPGroupOptions{StragglerRank: -1}); err == nil {
		t.Error("nil timer accepted")
	}
	single := p
	single.TP = 1
	if _, err := BuildTPGroupForward(single, tm, TPGroupOptions{StragglerRank: -1}); err == nil {
		t.Error("TP=1 accepted")
	}
	if _, err := BuildTPGroupForward(p, tm, TPGroupOptions{StragglerRank: 99}); err == nil {
		t.Error("out-of-range straggler accepted")
	}
	if _, err := BuildTPGroupForward(p, tm, TPGroupOptions{StragglerRank: 1, StragglerFactor: 0.5}); err == nil {
		t.Error("sub-1 straggler factor accepted")
	}
}

func TestTPGroupScheduleExecutes(t *testing.T) {
	p := tpGroupPlan()
	tm := newTimer(t, p)
	ops, err := BuildTPGroupForward(p, tm, TPGroupOptions{StragglerRank: -1, Layers: 1})
	if err != nil {
		t.Fatal(err)
	}
	trace, err := runOps(ops, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Every rank must do identical compute work.
	for r := 1; r < p.TP; r++ {
		if busyTime(trace, r, sim.ComputeStream) != busyTime(trace, 0, sim.ComputeStream) {
			t.Errorf("rank %d compute differs from rank 0", r)
		}
	}
	// Ring steps: 2 ARs per fwd layer × 2(N-1) steps × N ranks.
	comm := 0
	for _, o := range ops {
		if o.Label == LabelTPComm {
			comm++
		}
	}
	want := 2 * 2 * (p.TP - 1) * p.TP
	if comm != want {
		t.Errorf("comm ops = %d, want %d", comm, want)
	}
}
