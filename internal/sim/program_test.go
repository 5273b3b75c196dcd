package sim

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"twocs/internal/parallel"
	"twocs/internal/race"
	"twocs/internal/units"
)

// fuzzOps builds a pseudo-random but always-acyclic schedule (deps point
// strictly backwards), the same construction FuzzRunWellFormed uses,
// optionally with a second dependency edge per op.
func fuzzOps(count, devs, depStride uint8, twoDeps bool) []Op {
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

// TestProgramMatchesReferenceIteration pins Compile+Run to the reference
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
		got, err := p.Run(p.Durations(), cfg)
		if err != nil {
			t.Fatalf("cfg %d: program: %v", ci, err)
		}
		requireSameTrace(t, want, got)
		// Re-timing with scaled durations must match a reference run of
		// the re-priced schedule: the compiled shape is duration-free.
		scaled := make([]Op, len(ops))
		durs := p.Durations()
		for i := range durs {
			durs[i] *= 0.375
			scaled[i] = ops[i]
			scaled[i].Duration = durs[i]
		}
		want2, err := referenceRun(scaled, cfg)
		if err != nil {
			t.Fatalf("cfg %d: reference scaled: %v", ci, err)
		}
		got2, err := p.Run(durs, cfg)
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
		_, gotErr := Run(ops, Config{})
		if wantErr == nil || gotErr == nil {
			t.Fatalf("case %d: expected errors, reference=%v program=%v", i, wantErr, gotErr)
		}
		if wantErr.Error() != gotErr.Error() {
			t.Fatalf("case %d: error diverged:\nreference %q\nprogram   %q", i, wantErr, gotErr)
		}
	}
}

// FuzzProgramDifferential is the differential oracle: over randomized
// acyclic DAGs and all config classes, sim.Run (now Compile+Run) and the
// reference engine must produce identical traces or identical errors.
func FuzzProgramDifferential(f *testing.F) {
	f.Add(uint8(5), uint8(2), uint8(3), false, uint8(0))
	f.Add(uint8(12), uint8(1), uint8(7), true, uint8(1))
	f.Add(uint8(23), uint8(3), uint8(1), true, uint8(3))
	f.Add(uint8(17), uint8(2), uint8(2), false, uint8(2))
	f.Fuzz(func(t *testing.T, count, devs, depStride uint8, twoDeps bool, cfgSel uint8) {
		ops := fuzzOps(count, devs, depStride, twoDeps)
		cfg := differentialConfigs[int(cfgSel)%len(differentialConfigs)]
		want, wantErr := referenceRun(ops, cfg)
		p, err := Compile(ops)
		if err != nil {
			if wantErr == nil || wantErr.Error() != err.Error() {
				t.Fatalf("compile error diverged: reference %v, compile %v", wantErr, err)
			}
			return
		}
		got, gotErr := p.Run(p.Durations(), cfg)
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
		// A second run over recycled scratch must be deterministic.
		again, err := p.Run(p.Durations(), cfg)
		if err != nil {
			t.Fatalf("second run: %v", err)
		}
		requireSameTrace(t, got, again)
	})
}

// TestProgramConcurrentRun shares one compiled Program across sweep
// workers (the intended grid-study usage) and checks every concurrent
// result matches the sequential one. Run under -race in CI.
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
	sequential := make([]*Trace, len(points))
	for i, scale := range points {
		durs := p.Durations()
		for j := range durs {
			durs[j] *= units.Seconds(scale)
		}
		tr, err := p.Run(durs, cfg)
		if err != nil {
			t.Fatalf("sequential point %d: %v", i, err)
		}
		sequential[i] = tr
	}
	concurrent, err := parallel.Collect(context.Background(), 8, len(points), func(_ context.Context, i int) (*Trace, error) {
		durs := p.Durations()
		for j := range durs {
			durs[j] *= units.Seconds(points[i])
		}
		return p.Run(durs, cfg)
	})
	if err != nil {
		t.Fatalf("parallel.Collect: %v", err)
	}
	for i := range points {
		requireSameTrace(t, sequential[i], concurrent[i])
	}
}

// TestProgramRunValidation covers the per-run argument checks.
func TestProgramRunValidation(t *testing.T) {
	p, err := Compile(iterationOps(2))
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if _, err := p.Run(make([]units.Seconds, p.NumOps()+1), Config{}); err == nil {
		t.Fatal("expected length-mismatch error")
	}
	bad := p.Durations()
	bad[3] = -1
	if _, err := p.Run(bad, Config{}); err == nil {
		t.Fatal("expected invalid-duration error")
	}
	if _, err := p.Run(p.Durations(), Config{Faults: Faults{StragglerSlowdown: 0.5}}); err == nil {
		t.Fatal("expected fault-validation error")
	}
	other, err := Compile(iterationOps(2))
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if _, err := p.RunWith(other.NewState(), p.Durations(), Config{}); err == nil {
		t.Fatal("expected foreign-state ownership error")
	}
	if _, err := p.RunWith(nil, p.Durations(), Config{}); err == nil {
		t.Fatal("expected nil-state error")
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
	durs := p.Durations()
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

// TestRunAllocBounds pins the allocations per run of the pooled re-time
// (the two a Trace needs: the struct and its span slice) and of the
// rebuild-per-point path, each over its benchmark's loop body.
func TestRunAllocBounds(t *testing.T) {
	if race.Enabled() {
		t.Skip("allocation counts are exact only without the race detector")
	}
	ops := iterationOps(24)
	p, err := Compile(ops)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	durs := p.Durations()
	cfg := Config{InterferenceSlowdown: 1.4}
	for _, tc := range []struct {
		bench string
		bound float64
		run   func() error
	}{
		{"ProgramReTimePooled", 2, func() error { _, err := p.Run(durs, cfg); return err }},
		{"RunRebuild", 45, func() error { _, err := Run(ops, cfg); return err }},
	} {
		avg := testing.AllocsPerRun(200, func() {
			if err := tc.run(); err != nil {
				t.Fatalf("%s: %v", tc.bench, err)
			}
		})
		if avg > tc.bound {
			t.Errorf("Benchmark%s body allocates %.0f objects/run, bound is %.0f", tc.bench, avg, tc.bound)
		}
	}
}

// TestRunReuseMatchesRunWith: the reusing path must produce exactly the
// trace the allocating path does, across shapes and re-sizes (growing
// and shrinking the reused trace between programs).
func TestRunReuseMatchesRunWith(t *testing.T) {
	cfg := Config{InterferenceSlowdown: 1.3}
	var reused Trace
	for _, n := range []int{6, 24, 2, 15} {
		p, err := Compile(iterationOps(n))
		if err != nil {
			t.Fatalf("Compile(%d): %v", n, err)
		}
		st := p.NewState()
		durs := p.Durations()
		for i := range durs {
			durs[i] *= units.Seconds(1 + float64(i%3)*0.25)
		}
		want, err := p.RunWith(p.NewState(), durs, cfg)
		if err != nil {
			t.Fatalf("RunWith(%d): %v", n, err)
		}
		if err := p.RunReuse(st, durs, cfg, &reused); err != nil {
			t.Fatalf("RunReuse(%d): %v", n, err)
		}
		if !reflect.DeepEqual(want.Spans, reused.Spans) || want.Makespan != reused.Makespan {
			t.Fatalf("n=%d: RunReuse diverged from RunWith", n)
		}
		// The lazy analysis indexes must rebuild against the new spans.
		if !reflect.DeepEqual(want.LabelTime(), reused.LabelTime()) {
			t.Fatalf("n=%d: reused trace serves stale label sums", n)
		}
	}
}

// TestRunReuseValidation covers the argument errors of the reuse path.
func TestRunReuseValidation(t *testing.T) {
	p, err := Compile(iterationOps(2))
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	var tr Trace
	if err := p.RunReuse(p.NewState(), p.Durations(), Config{}, nil); err == nil {
		t.Fatal("expected nil-trace error")
	}
	if err := p.RunReuse(nil, p.Durations(), Config{}, &tr); err == nil {
		t.Fatal("expected nil-state error")
	}
	if err := p.RunReuse(p.NewState(), make([]units.Seconds, 1), Config{}, &tr); err == nil {
		t.Fatal("expected length-mismatch error")
	}
}

// TestCriticalPathUnchanged is the regression gate for the shared byID
// index: CriticalPath must return exactly what the per-call-map
// implementation returned, on engine output and on hand-built traces
// with missing dependency spans (where the old map lookup yielded a
// zero Span).
func TestCriticalPathUnchanged(t *testing.T) {
	traces := []*Trace{}
	for _, ops := range [][]Op{iterationOps(6), fuzzOps(19, 3, 2, true), fuzzOps(9, 1, 4, false)} {
		tr, err := Run(ops, Config{InterferenceSlowdown: 1.5})
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
		// Second call reuses the cached index and must be identical.
		againPath, againLabels := tr.CriticalPath()
		if !reflect.DeepEqual(gotPath, againPath) || !reflect.DeepEqual(gotLabels, againLabels) {
			t.Fatalf("trace %d: repeated CriticalPath diverged", ti)
		}
	}
}

// TestLabelTimeCached checks LabelTime computes once and keeps serving
// the same (correct) map.
func TestLabelTimeCached(t *testing.T) {
	tr, err := Run(iterationOps(4), Config{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	fresh := make(map[string]units.Seconds)
	for _, s := range tr.Spans {
		fresh[s.Op.Label] += s.Duration()
	}
	first := tr.LabelTime()
	if !reflect.DeepEqual(fresh, first) {
		t.Fatalf("LabelTime diverged from direct sum: %v vs %v", first, fresh)
	}
	second := tr.LabelTime()
	if reflect.ValueOf(first).Pointer() != reflect.ValueOf(second).Pointer() {
		t.Fatal("LabelTime rebuilt its map on the second call")
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
	durs := p.Durations()
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

// BenchmarkProgramReTimePooled is the concurrent-safe variant every
// sweep worker uses: Run draws scratch from the Program's pool.
func BenchmarkProgramReTimePooled(b *testing.B) {
	ops := iterationOps(24)
	p, err := Compile(ops)
	if err != nil {
		b.Fatalf("Compile: %v", err)
	}
	durs := p.Durations()
	cfg := Config{InterferenceSlowdown: 1.4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Run(durs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunRebuild is the old cost model: full validate+compile+run
// per point, what every grid study paid before the compiled layer.
func BenchmarkRunRebuild(b *testing.B) {
	ops := iterationOps(24)
	cfg := Config{InterferenceSlowdown: 1.4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(ops, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
