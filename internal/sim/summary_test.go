package sim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"twocs/internal/race"
	"twocs/internal/units"
)

// byLane relabels ops with their (device, stream) lane, so the trace
// oracle's LabelTime sums exactly what a LaneSummary's Executed does.
func byLane(ops []Op) []Op {
	out := make([]Op, len(ops))
	for i, op := range ops {
		op.Label = fmt.Sprintf("d%d/%v", op.Device, op.Stream)
		out[i] = op
	}
	return out
}

// summaryOps is fuzzOps with lane labels and durations drawn from a
// table where zero is common and the rest are not dyadic, so lanes get
// zero-length ops, back-to-back intervals and merge rounding.
func summaryOps(count, devs, depStride uint8, twoDeps bool, seed uint64) []Op {
	table := [...]units.Seconds{0, 0, 0.1, 0.2, 0.3, 1.0 / 3, 0.7, 1.5}
	rng := rand.New(rand.NewPCG(seed, 0x5a11))
	ops := fuzzOps(count, devs, depStride, twoDeps, 0)
	for i := range ops {
		ops[i].Duration = table[rng.IntN(len(table))]
	}
	return byLane(ops)
}

func sameSeconds(a, b units.Seconds) bool {
	return math.Float64bits(float64(a)) == math.Float64bits(float64(b))
}

// requireSummaryMatchesTrace checks a run summary bit for bit against
// the trace analytics of the same run (ops labelled by lane).
func requireSummaryMatchesTrace(t *testing.T, p *Program, sum *Summary, tr *Trace) {
	t.Helper()
	if sum == nil {
		t.Fatal("nil summary after a successful run")
	}
	if !sameSeconds(sum.Makespan, tr.Makespan) {
		t.Fatalf("makespan: summary %v, trace %v", sum.Makespan, tr.Makespan)
	}
	if len(sum.Lanes) != len(p.queues) {
		t.Fatalf("summary has %d lanes, program %d", len(sum.Lanes), len(p.queues))
	}
	labels := tr.LabelTime()
	for q, l := range sum.Lanes {
		if l.Device != p.queues[q].dev || l.Stream != p.queues[q].stream {
			t.Fatalf("lane %d is (%d, %v), program lane (%d, %v)", q, l.Device, l.Stream, p.queues[q].dev, p.queues[q].stream)
		}
		if want := labels[fmt.Sprintf("d%d/%v", l.Device, l.Stream)]; !sameSeconds(l.Executed, want) {
			t.Fatalf("lane (%d, %v) executed: summary %v, trace %v", l.Device, l.Stream, l.Executed, want)
		}
		var want units.Seconds
		switch l.Stream {
		case CommStream:
			want = tr.ExposedCommOn(l.Device, CommStream)
		case DPCommStream:
			want = tr.ExposedDPComm(l.Device)
		}
		if !sameSeconds(l.Exposed, want) {
			t.Fatalf("lane (%d, %v) exposed: summary %v, trace %v", l.Device, l.Stream, l.Exposed, want)
		}
		if got := sum.Lane(l.Device, l.Stream); got != l {
			t.Fatalf("Lane(%d, %v) = %+v, want %+v", l.Device, l.Stream, got, l)
		}
	}
}

// checkSummary runs ops once through Summarize and once through
// RunReuse and compares the summaries with the trace analytics. It
// reports false when the schedule does not execute.
func checkSummary(t *testing.T, ops []Op, cfg Config) bool {
	t.Helper()
	p, err := Compile(ops)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	st := p.NewState()
	var tr Trace
	if err := p.RunReuse(st, durations(ops), cfg, &tr); err != nil {
		if st.Summary() != nil {
			t.Fatalf("failed run %v left a summary", err)
		}
		if _, err2 := p.Summarize(st, durations(ops), cfg); err2 == nil || err2.Error() != err.Error() {
			t.Fatalf("Summarize error %v, RunReuse error %v", err2, err)
		}
		return false
	}
	requireSummaryMatchesTrace(t, p, st.Summary(), &tr)
	sum, err := p.Summarize(p.NewState(), durations(ops), cfg)
	if err != nil {
		t.Fatalf("Summarize: %v", err)
	}
	requireSummaryMatchesTrace(t, p, sum, &tr)
	return true
}

// TestSummaryMatchesTraceAnalytics pins the run summary to the trace
// analytics it replaced, on the iteration shape and on random
// multi-device programs, under every config class.
func TestSummaryMatchesTraceAnalytics(t *testing.T) {
	shapes := map[string][]Op{
		"iteration":   byLane(iterationOps(6)),
		"multi-lane":  byLane(fuzzOps(23, 3, 1, true, 0)),
		"zero-length": summaryOps(19, 2, 2, true, 7),
		"two-device":  summaryOps(24, 2, 3, false, 11),
		"touching": {
			// Back to back on one lane, and a comm op starting exactly
			// where compute ends: merging joins them.
			{ID: "a", Stream: ComputeStream, Duration: 0.1, Label: "d0/compute"},
			{ID: "b", Stream: ComputeStream, Duration: 0.2, Label: "d0/compute"},
			{ID: "z", Stream: ComputeStream, Label: "d0/compute"},
			{ID: "c", Stream: CommStream, Duration: 0.3, Deps: []string{"b"}, Label: "d0/comm"},
			{ID: "d", Stream: DPCommStream, Duration: 0.7, Deps: []string{"a"}, Label: "d0/dp-comm"},
			{ID: "e", Stream: ComputeStream, Duration: 1.0 / 3, Deps: []string{"c"}, Label: "d0/compute"},
		},
		"empty": {},
	}
	for name, ops := range shapes {
		for ci, cfg := range differentialConfigs {
			if !checkSummary(t, ops, cfg) {
				t.Fatalf("%s cfg %d: schedule does not execute", name, ci)
			}
		}
	}
}

// TestSummaryAfterFailedRun checks a state whose last run failed
// reports no summary.
func TestSummaryAfterFailedRun(t *testing.T) {
	ops := iterationOps(2)
	p, err := Compile(ops)
	if err != nil {
		t.Fatal(err)
	}
	st := p.NewState()
	if st.Summary() != nil {
		t.Fatal("a state that never ran has a summary")
	}
	if _, err := p.Summarize(st, durations(ops), Config{}); err != nil {
		t.Fatal(err)
	}
	bad := durations(ops)
	bad[0] = -1
	if _, err := p.Summarize(st, bad, Config{}); err == nil {
		t.Fatal("expected invalid-duration error")
	}
	if st.Summary() != nil {
		t.Fatal("a failed run left a summary")
	}
	if _, err := p.Summarize(nil, durations(ops), Config{}); err == nil {
		t.Fatal("expected nil-state error")
	}
}

// FuzzSummaryDifferential compares the run summary with the trace
// analytics on random multi-lane programs with zero-length ops and
// non-dyadic durations, under every config class.
func FuzzSummaryDifferential(f *testing.F) {
	f.Add(uint8(5), uint8(2), uint8(3), false, uint8(0), uint64(1))
	f.Add(uint8(12), uint8(1), uint8(7), true, uint8(1), uint64(2))
	f.Add(uint8(23), uint8(3), uint8(1), true, uint8(3), uint64(3))
	f.Add(uint8(17), uint8(2), uint8(2), false, uint8(2), uint64(4))
	f.Fuzz(func(t *testing.T, count, devs, depStride uint8, twoDeps bool, cfgSel uint8, seed uint64) {
		ops := summaryOps(count, devs, depStride, twoDeps, seed)
		checkSummary(t, ops, differentialConfigs[int(cfgSel)%len(differentialConfigs)])
	})
}

// summaryAllocBound is the steady-state allocation count of one
// Summarize over caller-owned state: exactly zero.
const summaryAllocBound = 0

// TestSummarizeAllocBound pins the summary re-time's allocations.
func TestSummarizeAllocBound(t *testing.T) {
	if race.Enabled() {
		t.Skip("allocation counts are exact only without the race detector")
	}
	ops := iterationOps(8)
	p, err := Compile(ops)
	if err != nil {
		t.Fatal(err)
	}
	st := p.NewState()
	durs := durations(ops)
	cfg := Config{InterferenceSlowdown: 1.4}
	if _, err := p.Summarize(st, durs, cfg); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := p.Summarize(st, durs, cfg); err != nil {
			t.Fatalf("Summarize: %v", err)
		}
	})
	if avg > summaryAllocBound {
		t.Fatalf("summary path allocates %.1f objects/run, bound is %d", avg, summaryAllocBound)
	}
}

// BenchmarkProgramSummarize is BenchmarkProgramReTime without the
// trace: one Summarize per iteration over caller-owned state.
func BenchmarkProgramSummarize(b *testing.B) {
	ops := iterationOps(24)
	p, err := Compile(ops)
	if err != nil {
		b.Fatalf("Compile: %v", err)
	}
	st := p.NewState()
	durs := durations(ops)
	cfg := Config{InterferenceSlowdown: 1.4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Summarize(st, durs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
