package dist

import (
	"math"
	"strings"
	"testing"

	"twocs/internal/collective"
	"twocs/internal/hw"
	"twocs/internal/kernels"
	"twocs/internal/model"
	"twocs/internal/sim"
	"twocs/internal/tensor"
)

func smallModel() model.Config {
	return model.Config{
		Name: "tiny", Kind: model.Decoder, Layers: 2, Hidden: 1024, FCDim: 4096,
		Heads: 16, Vocab: 1000, SeqLen: 512, Batch: 4, DT: tensor.FP16,
	}
}

func testPlan(tp, dp int) Plan {
	nodes := (tp*dp + 3) / 4
	if nodes < 1 {
		nodes = 1
	}
	return Plan{
		Model:   smallModel(),
		TP:      tp,
		DP:      dp,
		Cluster: hw.MI210Cluster(nodes, 1.0/8),
		Algo:    collective.Ring,
	}
}

func newTimer(t *testing.T, p Plan) *Timer {
	t.Helper()
	calc, err := kernels.NewCalculator(p.Cluster.Node.Device)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := NewTimer(p, calc)
	if err != nil {
		t.Fatal(err)
	}
	return tm
}

func TestPlanValidate(t *testing.T) {
	if err := testPlan(4, 1).Validate(); err != nil {
		t.Error(err)
	}
	p := testPlan(4, 1)
	p.DP = 0
	if err := p.Validate(); err == nil {
		t.Error("dp=0 accepted")
	}
	p = testPlan(4, 1)
	p.Cluster.NumNodes = 0
	if err := p.Validate(); err == nil {
		t.Error("empty cluster accepted")
	}
	p = testPlan(16, 16)
	p.Cluster = hw.MI210Cluster(1, 1.0/8)
	if err := p.Validate(); err == nil {
		t.Error("oversubscribed cluster accepted")
	}
}

func TestTimerTimesEveryOpKind(t *testing.T) {
	p := testPlan(4, 2)
	tm := newTimer(t, p)
	ops, err := model.LayerOps(p.Model, p.TP)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ops {
		dur, err := tm.Time(d)
		if err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
		if dur <= 0 {
			t.Errorf("%s: non-positive duration %v", d.Name, dur)
		}
	}
	// DP all-reduce path too.
	gb, err := model.DPGradientBytes(p.Model, p.TP)
	if err != nil {
		t.Fatal(err)
	}
	dur, err := tm.Time(model.OpDesc{Kind: model.DPAllReduce, Bytes: gb, DT: tensor.FP16})
	if err != nil || dur <= 0 {
		t.Errorf("DP AR: %v, %v", dur, err)
	}
}

func TestBuildIterationWellFormed(t *testing.T) {
	p := testPlan(4, 2)
	tm := newTimer(t, p)
	ops, err := BuildIteration(p, tm, ScheduleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// 2 layers × (fwd 11 ops + bwd 14 ops) + 2 DP ARs.
	ids := make(map[string]bool)
	var tpARs, dpARs int
	for _, o := range ops {
		if ids[o.ID] {
			t.Fatalf("duplicate op id %q", o.ID)
		}
		ids[o.ID] = true
		switch o.Label {
		case LabelTPComm:
			tpARs++
			if o.Stream != sim.CommStream {
				t.Errorf("%s on stream %v", o.ID, o.Stream)
			}
		case LabelDPComm:
			dpARs++
			if o.Stream != sim.DPCommStream {
				t.Errorf("%s on stream %v", o.ID, o.Stream)
			}
		}
	}
	if want := model.SerializedARCount * p.Model.Layers; tpARs != want {
		t.Errorf("tp all-reduces = %d, want %d", tpARs, want)
	}
	if dpARs != p.Model.Layers {
		t.Errorf("dp all-reduces = %d, want %d", dpARs, p.Model.Layers)
	}
	// And the schedule must actually run.
	if _, err := runOps(ops, sim.Config{}); err != nil {
		t.Fatalf("schedule does not execute: %v", err)
	}
}

func TestRunIterationBreakdown(t *testing.T) {
	p := testPlan(4, 2)
	tm := newTimer(t, p)
	rep, err := RunIteration(p, tm, ScheduleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := CompileIteration(p, tm, ScheduleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, trace, err := c.Run(tm, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan <= 0 {
		t.Fatal("empty makespan")
	}
	if rep.ComputeTime <= 0 || rep.TPCommTime <= 0 || rep.DPCommTime <= 0 {
		t.Errorf("breakdown has zero components: %+v", rep)
	}
	// Serialized TP comm must be fully exposed (it gates compute).
	if math.Abs(float64(rep.ExposedTPComm-rep.TPCommTime)) > 1e-9 {
		t.Errorf("TP comm exposed %v != busy %v; it is serialized by construction",
			rep.ExposedTPComm, rep.TPCommTime)
	}
	if rep.SerializedCommFraction() <= 0 || rep.SerializedCommFraction() >= 1 {
		t.Errorf("serialized fraction = %v", rep.SerializedCommFraction())
	}
	if trace.Makespan != rep.Makespan {
		t.Error("trace/report makespan mismatch")
	}
}

func TestDPCommMostlyOverlapped(t *testing.T) {
	// With a healthy batch the DP gradient all-reduce should hide under
	// backward compute (compute's slack advantage, Fig 3a). Only the
	// final layer's all-reduce has no compute left to hide under, so
	// exposure shrinks with layer count.
	p := testPlan(4, 2)
	p.Model.Layers = 8
	tm := newTimer(t, p)
	rep, err := RunIteration(p, tm, ScheduleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if frac := float64(rep.ExposedDPComm) / float64(rep.DPCommTime); frac > 0.25 {
		t.Errorf("DP comm %.0f%% exposed; expected mostly hidden", frac*100)
	}
}

func TestTPOneHasNoSerializedComm(t *testing.T) {
	p := testPlan(1, 4)
	tm := newTimer(t, p)
	rep, err := RunIteration(p, tm, ScheduleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TPCommTime != 0 {
		t.Errorf("TP=1 has TP comm time %v", rep.TPCommTime)
	}
}

func TestSerializedFractionGrowsWithTP(t *testing.T) {
	// Fig 10's central trend: for fixed model, a larger TP degree
	// increases the serialized communication fraction.
	fracs := make([]float64, 0, 3)
	for _, tp := range []int{2, 8, 16} {
		p := testPlan(tp, 1)
		tm := newTimer(t, p)
		rep, err := RunIteration(p, tm, ScheduleOptions{})
		if err != nil {
			t.Fatal(err)
		}
		fracs = append(fracs, rep.SerializedCommFraction())
	}
	if !(fracs[0] < fracs[1] && fracs[1] < fracs[2]) {
		t.Errorf("serialized fraction not increasing with TP: %v", fracs)
	}
}

func TestInterferenceLengthensIteration(t *testing.T) {
	p := testPlan(4, 2)
	tm := newTimer(t, p)
	clean, err := RunIteration(p, tm, ScheduleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	slowed, err := RunIteration(p, tm, ScheduleOptions{InterferenceSlowdown: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if slowed.Makespan <= clean.Makespan {
		t.Errorf("interference must slow the iteration: %v vs %v",
			slowed.Makespan, clean.Makespan)
	}
}

func TestBuildIterationErrors(t *testing.T) {
	p := testPlan(4, 1)
	if _, err := BuildIteration(p, nil, ScheduleOptions{}); err == nil {
		t.Error("nil timer accepted")
	}
	bad := p
	bad.TP = 3
	tm := newTimer(t, p)
	if _, err := BuildIteration(bad, tm, ScheduleOptions{}); err == nil {
		t.Error("invalid plan accepted")
	}
}

func TestEstimateRequiredTP(t *testing.T) {
	ests, err := EstimateRequiredTP(model.Zoo())
	if err != nil {
		t.Fatal(err)
	}
	if len(ests) != len(model.Zoo()) {
		t.Fatalf("got %d estimates", len(ests))
	}
	byName := make(map[string]TPEstimate)
	for _, e := range ests {
		byName[e.Model] = e
	}
	// Paper §4.3.2: the largest models need TP scaled 40-60× over the
	// anchor, i.e. required degrees of ~250-550.
	for _, name := range []string{"MT-NLG", "PaLM"} {
		e := byName[name]
		if e.TPScale < 40 || e.TPScale > 60 {
			t.Errorf("%s TP scale = %.1f, want 40-60 (paper Fig 9b)", name, e.TPScale)
		}
		if e.RequiredTP < 250 || e.RequiredTP > 550 {
			t.Errorf("%s required TP = %.0f, want ~250-550", name, e.RequiredTP)
		}
	}
	// Small early models must need little TP.
	if e := byName["BERT"]; e.RequiredTP > 8 {
		t.Errorf("BERT required TP = %.1f, want small", e.RequiredTP)
	}
}

func TestTimerUnknownKind(t *testing.T) {
	p := testPlan(4, 1)
	tm := newTimer(t, p)
	if _, err := tm.Time(model.OpDesc{Kind: model.OpKind(99)}); err == nil ||
		!strings.Contains(err.Error(), "cannot time") {
		t.Errorf("unknown kind: %v", err)
	}
}

func TestDPBucketing(t *testing.T) {
	p := testPlan(4, 2)
	p.Model.Layers = 8
	tm := newTimer(t, p)
	perLayer, err := BuildIteration(p, tm, ScheduleOptions{DPBucketLayers: 1})
	if err != nil {
		t.Fatal(err)
	}
	bucketed, err := BuildIteration(p, tm, ScheduleOptions{DPBucketLayers: 4})
	if err != nil {
		t.Fatal(err)
	}
	count := func(ops []sim.Op) (n int, bytesish float64) {
		for _, o := range ops {
			if o.Label == LabelDPComm {
				n++
				bytesish += float64(o.Duration)
			}
		}
		return
	}
	n1, _ := count(perLayer)
	n4, _ := count(bucketed)
	if n1 != 8 || n4 != 2 {
		t.Errorf("DP all-reduce counts = %d and %d, want 8 and 2", n1, n4)
	}
	// Bucketing amortizes latency: total DP comm time must not grow.
	_, t1 := count(perLayer)
	_, t4 := count(bucketed)
	if t4 > t1 {
		t.Errorf("bucketed DP comm %v should not exceed per-layer %v", t4, t1)
	}
	// Both schedules must execute.
	if _, err := runOps(bucketed, sim.Config{}); err != nil {
		t.Fatal(err)
	}
}
