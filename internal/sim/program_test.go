package sim

import (
	"context"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"twocs/internal/parallel"
	"twocs/internal/units"
)

// fuzzMix selects how fuzzOps departs from its base schedule, whose
// durations are dyadic ((i%7)+0.5, so every sum is exact) and whose ops
// rotate round-robin over the streams (so a lane rarely runs alone).
type fuzzMix uint8

const (
	// mixNonDyadic draws durations like 0.1k + 1/3, whose sums round.
	mixNonDyadic fuzzMix = 1 << iota
	// mixLaneRuns queues ops in runs of four on one lane, the engine's
	// lone-lane path.
	mixLaneRuns
	// mixZeroLen gives every fifth op zero duration.
	mixZeroLen
)

// fuzzOps builds a pseudo-random but always-acyclic schedule (deps point
// strictly backwards), the same construction FuzzRunWellFormed uses,
// optionally with a second dependency edge per op, varied by mix.
func fuzzOps(count, devs, depStride uint8, twoDeps bool, mix fuzzMix) []Op {
	n := int(count)%24 + 1
	d := int(devs)%3 + 1
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = Op{
			ID:       fmt.Sprintf("op%d", i),
			Device:   i % d,
			Stream:   Stream(i % 3),
			Duration: units.Seconds(float64(i%7) + 0.5),
			Label:    fmt.Sprintf("l%d", i%4),
		}
		if mix&mixNonDyadic != 0 {
			ops[i].Duration = units.Seconds(0.1*float64(i%7+1) + 1.0/3)
		}
		if mix&mixLaneRuns != 0 {
			run := i / 4
			ops[i].Device, ops[i].Stream = run/3%d, Stream(run%3)
		}
		if mix&mixZeroLen != 0 && i%5 == 2 {
			ops[i].Duration = 0
		}
		if depStride > 0 && i >= int(depStride) {
			ops[i].Deps = []string{fmt.Sprintf("op%d", i-int(depStride))}
			if twoDeps && i >= 2*int(depStride) {
				ops[i].Deps = append(ops[i].Deps, fmt.Sprintf("op%d", i-2*int(depStride)))
			}
		}
	}
	return ops
}

// iterationOps hand-builds a miniature TP+DP training iteration of the
// shape internal/dist emits: per-layer forward compute feeding a
// serialized TP all-reduce, backward compute overlapping bucketed DP
// all-reduces, and a final optimizer step. It exercises all three
// streams and both dependency styles without importing dist (which would
// cycle).
func iterationOps(layers int) []Op {
	var ops []Op
	prevFwd := ""
	for l := 0; l < layers; l++ {
		fwd := Op{ID: fmt.Sprintf("l%d.fwd", l), Device: 0, Stream: ComputeStream,
			Duration: units.Seconds(3 + float64(l%3)), Label: "compute"}
		if prevFwd != "" {
			fwd.Deps = []string{prevFwd}
		}
		ar := Op{ID: fmt.Sprintf("l%d.tp", l), Device: 0, Stream: CommStream,
			Duration: units.Seconds(1.25), Label: "tp-comm", Deps: []string{fwd.ID}}
		ops = append(ops, fwd, ar)
		prevFwd = ar.ID
	}
	prevBwd := prevFwd
	for l := layers - 1; l >= 0; l-- {
		bwd := Op{ID: fmt.Sprintf("l%d.bwd", l), Device: 0, Stream: ComputeStream,
			Duration: units.Seconds(5 + float64(l%2)), Label: "compute",
			Deps: []string{prevBwd}}
		dp := Op{ID: fmt.Sprintf("l%d.dp", l), Device: 0, Stream: DPCommStream,
			Duration: units.Seconds(2.5), Label: "dp-comm", Deps: []string{bwd.ID}}
		ops = append(ops, bwd, dp)
		prevBwd = bwd.ID
	}
	deps := make([]string, 0, layers)
	for l := 0; l < layers; l++ {
		deps = append(deps, fmt.Sprintf("l%d.dp", l))
	}
	ops = append(ops, Op{ID: "opt", Device: 0, Stream: ComputeStream,
		Duration: units.Seconds(4), Label: "optimizer", Deps: deps})
	return ops
}

// runOps executes ops once the way production re-times a schedule:
// Compile, then RunReuse over fresh scratch.
func runOps(ops []Op, cfg Config) (*Trace, error) {
	p, err := Compile(ops)
	if err != nil {
		return nil, err
	}
	return runProgram(p, durations(ops), cfg)
}

// runProgram re-times p once under durs over a fresh RunState and Trace.
func runProgram(p *Program, durs []units.Seconds, cfg Config) (*Trace, error) {
	tr := &Trace{}
	if err := p.RunReuse(p.NewState(), durs, cfg, tr); err != nil {
		return nil, err
	}
	return tr, nil
}

// durations returns a mutable copy of ops' durations, the starting
// buffer of a re-time of the Program compiled from them.
func durations(ops []Op) []units.Seconds {
	out := make([]units.Seconds, len(ops))
	for i, op := range ops {
		out[i] = op.Duration
	}
	return out
}

// requireSameTrace asserts two traces are bit-identical in spans and
// makespan — the compiled path's contract with the reference engine.
func requireSameTrace(t *testing.T, want, got *Trace) {
	t.Helper()
	if want.Makespan != got.Makespan {
		t.Fatalf("makespan diverged: reference %v, program %v", want.Makespan, got.Makespan)
	}
	if len(want.Spans) != len(got.Spans) {
		t.Fatalf("span count diverged: reference %d, program %d", len(want.Spans), len(got.Spans))
	}
	for i := range want.Spans {
		if !reflect.DeepEqual(want.Spans[i], got.Spans[i]) {
			t.Fatalf("span %d diverged:\nreference %+v\nprogram   %+v", i, want.Spans[i], got.Spans[i])
		}
	}
}

var differentialConfigs = []Config{
	{},
	{InterferenceSlowdown: 1.7},
	{Faults: Faults{StragglerDevice: 1, StragglerSlowdown: 2.5}},
	{InterferenceSlowdown: 1.3, Faults: Faults{CommSlowdown: 3}},
}

// TestProgramMatchesReferenceIteration pins Compile+RunReuse to the reference
// engine on a realistic iteration shape under every config class.
func TestProgramMatchesReferenceIteration(t *testing.T) {
	ops := iterationOps(6)
	p, err := Compile(ops)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	for ci, cfg := range differentialConfigs {
		want, err := referenceRun(ops, cfg)
		if err != nil {
			t.Fatalf("cfg %d: reference: %v", ci, err)
		}
		got, err := runProgram(p, durations(ops), cfg)
		if err != nil {
			t.Fatalf("cfg %d: program: %v", ci, err)
		}
		requireSameTrace(t, want, got)
		// Re-timing with scaled durations must match a reference run of
		// the re-priced schedule: the compiled shape is duration-free.
		scaled := make([]Op, len(ops))
		durs := durations(ops)
		for i := range durs {
			durs[i] *= 0.375
			scaled[i] = ops[i]
			scaled[i].Duration = durs[i]
		}
		want2, err := referenceRun(scaled, cfg)
		if err != nil {
			t.Fatalf("cfg %d: reference scaled: %v", ci, err)
		}
		got2, err := runProgram(p, durs, cfg)
		if err != nil {
			t.Fatalf("cfg %d: program scaled: %v", ci, err)
		}
		requireSameTrace(t, want2, got2)
	}
}

// TestProgramMatchesReferenceErrors checks the compiled path reproduces
// the reference engine's validation and deadlock errors verbatim.
func TestProgramMatchesReferenceErrors(t *testing.T) {
	cases := [][]Op{
		{{ID: "", Device: 0}},
		{{ID: "a", Device: -1}},
		{{ID: "a", Duration: -1}},
		{{ID: "a"}, {ID: "a"}},
		{{ID: "a", Deps: []string{"ghost"}}},
		// Stream-order deadlock: b is queued before a on the same stream
		// but depends on it.
		{
			{ID: "b", Device: 0, Stream: ComputeStream, Duration: 1, Deps: []string{"a"}},
			{ID: "a", Device: 0, Stream: ComputeStream, Duration: 1},
		},
		// Cross-stream circular wait.
		{
			{ID: "x", Device: 0, Stream: ComputeStream, Duration: 1, Deps: []string{"y"}},
			{ID: "y", Device: 0, Stream: CommStream, Duration: 1, Deps: []string{"x"}},
		},
	}
	for i, ops := range cases {
		_, wantErr := referenceRun(ops, Config{})
		_, gotErr := runOps(ops, Config{})
		if wantErr == nil || gotErr == nil {
			t.Fatalf("case %d: expected errors, reference=%v program=%v", i, wantErr, gotErr)
		}
		if wantErr.Error() != gotErr.Error() {
			t.Fatalf("case %d: error diverged:\nreference %q\nprogram   %q", i, wantErr, gotErr)
		}
	}
}

// requireMatchesReference runs ops through the reference engine and
// through Compile+RunReuse and requires identical traces or identical
// errors, then a second, deterministic run over recycled scratch.
func requireMatchesReference(t *testing.T, ops []Op, cfg Config) {
	t.Helper()
	want, wantErr := referenceRun(ops, cfg)
	p, err := Compile(ops)
	if err != nil {
		if wantErr == nil || wantErr.Error() != err.Error() {
			t.Fatalf("compile error diverged: reference %v, compile %v", wantErr, err)
		}
		return
	}
	st := p.NewState()
	got := &Trace{}
	gotErr := p.RunReuse(st, durations(ops), cfg, got)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("error presence diverged: reference %v, program %v", wantErr, gotErr)
	}
	if wantErr != nil {
		if wantErr.Error() != gotErr.Error() {
			t.Fatalf("error text diverged:\nreference %q\nprogram   %q", wantErr, gotErr)
		}
		return
	}
	requireSameTrace(t, want, got)
	again := &Trace{}
	if err := p.RunReuse(st, durations(ops), cfg, again); err != nil {
		t.Fatalf("second run: %v", err)
	}
	requireSameTrace(t, got, again)
}

// FuzzProgramDifferential is the differential oracle: over randomized
// acyclic DAGs, every fuzzOps mix and all config classes, Compile+RunReuse
// and the reference engine must produce identical traces or identical
// errors.
func FuzzProgramDifferential(f *testing.F) {
	f.Add(uint8(5), uint8(2), uint8(3), false, uint8(0), uint8(0))
	f.Add(uint8(12), uint8(1), uint8(7), true, uint8(1), uint8(0))
	f.Add(uint8(23), uint8(3), uint8(1), true, uint8(3), uint8(0))
	f.Add(uint8(17), uint8(2), uint8(2), false, uint8(2), uint8(0))
	f.Add(uint8(22), uint8(2), uint8(3), true, uint8(2), uint8(mixNonDyadic))
	f.Add(uint8(23), uint8(1), uint8(1), false, uint8(1), uint8(mixLaneRuns))
	f.Add(uint8(19), uint8(3), uint8(2), true, uint8(3), uint8(mixZeroLen))
	f.Add(uint8(23), uint8(2), uint8(1), true, uint8(3), uint8(mixNonDyadic|mixLaneRuns|mixZeroLen))
	f.Fuzz(func(t *testing.T, count, devs, depStride uint8, twoDeps bool, cfgSel, mix uint8) {
		ops := fuzzOps(count, devs, depStride, twoDeps, fuzzMix(mix))
		requireMatchesReference(t, ops, differentialConfigs[int(cfgSel)%len(differentialConfigs)])
	})
}

// TestProgramMatchesReferenceRandom runs the differential oracle over
// thousands of seeded schedules of every fuzzOps mix, the coverage the
// fuzz seeds alone do not give a plain go test.
func TestProgramMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 0xd1ff))
	for c := 0; c < 3000; c++ {
		ops := fuzzOps(uint8(rng.IntN(256)), uint8(rng.IntN(3)), uint8(rng.IntN(5)), rng.IntN(2) == 1,
			fuzzMix(rng.IntN(8)))
		requireMatchesReference(t, ops, differentialConfigs[c%len(differentialConfigs)])
	}
}

// TestProgramConcurrentRun shares one compiled Program across many
// goroutines, each re-timing it over its own RunState (the pattern
// dist.CompiledIteration uses), and checks every concurrent result
// matches the sequential one. Run under -race in CI.
func TestProgramConcurrentRun(t *testing.T) {
	ops := iterationOps(5)
	p, err := Compile(ops)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	cfg := Config{InterferenceSlowdown: 1.4}
	points := make([]float64, 64)
	for i := range points {
		points[i] = 0.5 + 0.125*float64(i)
	}
	scaled := func(i int) []units.Seconds {
		durs := durations(ops)
		for j := range durs {
			durs[j] *= units.Seconds(points[i])
		}
		return durs
	}
	sequential := make([]*Trace, len(points))
	for i := range points {
		tr, err := runProgram(p, scaled(i), cfg)
		if err != nil {
			t.Fatalf("sequential point %d: %v", i, err)
		}
		sequential[i] = tr
	}
	concurrent, err := parallel.Collect(context.Background(), 8, len(points), func(_ context.Context, i int) (*Trace, error) {
		return runProgram(p, scaled(i), cfg)
	})
	if err != nil {
		t.Fatalf("parallel.Collect: %v", err)
	}
	for i := range points {
		requireSameTrace(t, sequential[i], concurrent[i])
	}
}

// reTimeAllocBound is the enforced steady-state allocation ceiling of
// one RunReuse call over caller-owned scratch and trace: exactly zero.
// The trace struct, its span slice, and the sort all reuse
// caller-owned storage, so nothing is proportional to re-runs. CI's
// "Alloc contracts" step runs this test by name; raising the bound is
// an explicit reviewable change here, not a silent regression.
const reTimeAllocBound = 0

// TestProgramReTimeAllocBound pins the re-time hot path's allocations.
func TestProgramReTimeAllocBound(t *testing.T) {
	ops := iterationOps(8)
	p, err := Compile(ops)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	st := p.NewState()
	durs := durations(ops)
	cfg := Config{InterferenceSlowdown: 1.4}
	var tr Trace
	if err := p.RunReuse(st, durs, cfg, &tr); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := p.RunReuse(st, durs, cfg, &tr); err != nil {
			t.Fatalf("RunReuse: %v", err)
		}
	})
	if avg > reTimeAllocBound {
		t.Fatalf("re-time path allocates %.1f objects/run, bound is %d", avg, reTimeAllocBound)
	}
}

// TestRunReuseMatchesRunWith: re-timing into one reused Trace must
// produce exactly the trace a fresh state and trace do, across shapes
// and re-sizes (growing and shrinking the reused trace between
// programs).
func TestRunReuseMatchesRunWith(t *testing.T) {
	cfg := Config{InterferenceSlowdown: 1.3}
	var reused Trace
	for _, n := range []int{6, 24, 2, 15} {
		ops := iterationOps(n)
		p, err := Compile(ops)
		if err != nil {
			t.Fatalf("Compile(%d): %v", n, err)
		}
		st := p.NewState()
		durs := durations(ops)
		for i := range durs {
			durs[i] *= units.Seconds(1 + float64(i%3)*0.25)
		}
		want, err := runProgram(p, durs, cfg)
		if err != nil {
			t.Fatalf("fresh run(%d): %v", n, err)
		}
		if err := p.RunReuse(st, durs, cfg, &reused); err != nil {
			t.Fatalf("RunReuse(%d): %v", n, err)
		}
		if !reflect.DeepEqual(want.Spans, reused.Spans) || want.Makespan != reused.Makespan {
			t.Fatalf("n=%d: reused trace diverged from a fresh one", n)
		}
		// Analyses must read the new spans, not the old ones.
		if !reflect.DeepEqual(want.LabelTime(), reused.LabelTime()) {
			t.Fatalf("n=%d: reused trace serves stale label sums", n)
		}
	}
}

// TestProgramRunValidation covers the checks on what a run is given:
// duration length and sign, and fault settings.
func TestProgramRunValidation(t *testing.T) {
	ops := iterationOps(2)
	p, err := Compile(ops)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if _, err := runProgram(p, make([]units.Seconds, p.NumOps()+1), Config{}); err == nil {
		t.Fatal("expected length-mismatch error")
	}
	bad := durations(ops)
	bad[3] = -1
	// The run-time check names the op by ID, word for word as the
	// reference engine's compile-time check does.
	badOps := append([]Op(nil), ops...)
	badOps[3].Duration = -1
	_, wantErr := referenceRun(badOps, Config{})
	if _, err := runProgram(p, bad, Config{}); err == nil || wantErr == nil || err.Error() != wantErr.Error() {
		t.Fatalf("invalid-duration error %v, reference %v", err, wantErr)
	}
	if _, err := runProgram(p, durations(ops), Config{Faults: Faults{StragglerSlowdown: 0.5}}); err == nil {
		t.Fatal("expected fault-validation error")
	}
}

// TestRunReuseValidation covers the checks on RunReuse's own arguments:
// the trace, and a scratch state that is present and owned by p.
func TestRunReuseValidation(t *testing.T) {
	ops := iterationOps(2)
	p, err := Compile(ops)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	other, err := Compile(iterationOps(2))
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	var tr Trace
	if err := p.RunReuse(other.NewState(), durations(ops), Config{}, &tr); err == nil {
		t.Fatal("expected foreign-state ownership error")
	}
	if err := p.RunReuse(p.NewState(), durations(ops), Config{}, nil); err == nil {
		t.Fatal("expected nil-trace error")
	}
	if err := p.RunReuse(nil, durations(ops), Config{}, &tr); err == nil {
		t.Fatal("expected nil-state error")
	}
	if err := p.RunReuse(p.NewState(), make([]units.Seconds, 1), Config{}, &tr); err == nil {
		t.Fatal("expected length-mismatch error")
	}
}

// TestCriticalPathUnchanged pins CriticalPath to the reference walk, on
// engine output and on hand-built traces with missing dependency spans
// (where the map lookup yields a zero Span).
func TestCriticalPathUnchanged(t *testing.T) {
	traces := []*Trace{}
	for _, ops := range [][]Op{iterationOps(6), fuzzOps(19, 3, 2, true, 0), fuzzOps(9, 1, 4, false, 0)} {
		tr, err := runOps(ops, Config{InterferenceSlowdown: 1.5})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		traces = append(traces, tr)
	}
	traces = append(traces, &Trace{
		// Dep "ghost" has no span: both implementations must treat it as
		// the zero Span rather than panic or diverge.
		Spans: []Span{
			{Op: Op{ID: "a", Deps: []string{"ghost"}, Label: "x"}, Start: 2, End: 5},
			{Op: Op{ID: "b", Label: "y"}, Start: 0, End: 2},
		},
		Makespan: 5,
	})
	for ti, tr := range traces {
		wantPath, wantLabels := referenceCriticalPath(tr)
		gotPath, gotLabels := tr.CriticalPath()
		if !reflect.DeepEqual(wantPath, gotPath) {
			t.Fatalf("trace %d: critical path diverged:\nreference %+v\nindexed   %+v", ti, wantPath, gotPath)
		}
		if !reflect.DeepEqual(wantLabels, gotLabels) {
			t.Fatalf("trace %d: label shares diverged: %v vs %v", ti, wantLabels, gotLabels)
		}
	}
}

// BenchmarkProgramReTime measures the compile-once/re-time-many fast
// path: one RunReuse per iteration over caller-owned scratch and trace.
func BenchmarkProgramReTime(b *testing.B) {
	ops := iterationOps(24)
	p, err := Compile(ops)
	if err != nil {
		b.Fatalf("Compile: %v", err)
	}
	st := p.NewState()
	durs := durations(ops)
	cfg := Config{InterferenceSlowdown: 1.4}
	var tr Trace
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.RunReuse(st, durs, cfg, &tr); err != nil {
			b.Fatal(err)
		}
	}
}
