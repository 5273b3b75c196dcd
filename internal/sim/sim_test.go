package sim

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"twocs/internal/units"
)

func TestRunEmpty(t *testing.T) {
	tr, err := runOps(nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Makespan != 0 || len(tr.Spans) != 0 {
		t.Errorf("empty run: %+v", tr)
	}
}

func TestRunSequentialChain(t *testing.T) {
	ops := []Op{
		{ID: "a", Device: 0, Stream: ComputeStream, Duration: 1},
		{ID: "b", Device: 0, Stream: ComputeStream, Duration: 2, Deps: []string{"a"}},
		{ID: "c", Device: 0, Stream: ComputeStream, Duration: 3, Deps: []string{"b"}},
	}
	tr, err := runOps(ops, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Makespan != 6 {
		t.Errorf("makespan = %v, want 6", tr.Makespan)
	}
	if tr.Spans[2].Start != 3 || tr.Spans[2].End != 6 {
		t.Errorf("span c = %+v", tr.Spans[2])
	}
}

func TestStreamsRunInOrderWithoutDeps(t *testing.T) {
	// Two ops on one stream with no deps must still serialize.
	ops := []Op{
		{ID: "a", Device: 0, Stream: ComputeStream, Duration: 5},
		{ID: "b", Device: 0, Stream: ComputeStream, Duration: 5},
	}
	tr, err := runOps(ops, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Makespan != 10 {
		t.Errorf("makespan = %v, want 10 (in-order stream)", tr.Makespan)
	}
}

func TestComputeAndCommOverlap(t *testing.T) {
	ops := []Op{
		{ID: "gemm", Device: 0, Stream: ComputeStream, Duration: 10},
		{ID: "ar", Device: 0, Stream: CommStream, Duration: 6},
	}
	tr, err := runOps(ops, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Makespan != 10 {
		t.Errorf("makespan = %v, want 10 (comm hidden)", tr.Makespan)
	}
	busy, exposed := tr.BusyTime(0, CommStream), tr.ExposedCommOn(0, CommStream)
	if busy-exposed != 6 || exposed != 0 {
		t.Errorf("comm busy %v, exposed %v; want 6 fully hidden", busy, exposed)
	}
}

func TestExposedCommWhenLongerThanCompute(t *testing.T) {
	ops := []Op{
		{ID: "gemm", Device: 0, Stream: ComputeStream, Duration: 4},
		{ID: "ar", Device: 0, Stream: CommStream, Duration: 10},
	}
	tr, err := runOps(ops, Config{})
	if err != nil {
		t.Fatal(err)
	}
	busy, exposed := tr.BusyTime(0, CommStream), tr.ExposedCommOn(0, CommStream)
	if busy-exposed != 4 || exposed != 6 {
		t.Errorf("comm busy %v, exposed %v; want 4 hidden / 6 exposed", busy, exposed)
	}
}

func TestCrossDeviceDependency(t *testing.T) {
	ops := []Op{
		{ID: "d0", Device: 0, Stream: ComputeStream, Duration: 3},
		{ID: "d1", Device: 1, Stream: ComputeStream, Duration: 1, Deps: []string{"d0"}},
	}
	tr, err := runOps(ops, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Makespan != 4 {
		t.Errorf("makespan = %v, want 4", tr.Makespan)
	}
}

func TestSerializedCommOnCriticalPath(t *testing.T) {
	// TP pattern: gemm → allreduce → gemm, all dependent.
	ops := []Op{
		{ID: "g1", Device: 0, Stream: ComputeStream, Duration: 5},
		{ID: "ar", Device: 0, Stream: CommStream, Duration: 3, Deps: []string{"g1"}},
		{ID: "g2", Device: 0, Stream: ComputeStream, Duration: 5, Deps: []string{"ar"}},
	}
	tr, err := runOps(ops, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Makespan != 13 {
		t.Errorf("makespan = %v, want 13", tr.Makespan)
	}
	if exposed := tr.ExposedCommOn(0, CommStream); exposed != 3 {
		t.Errorf("exposed = %v, want all 3 serialized", exposed)
	}
}

func TestInterferenceSlowdown(t *testing.T) {
	// With a 2x interference slowdown, fully concurrent equal-length
	// compute and comm each take twice as long while both run.
	ops := []Op{
		{ID: "gemm", Device: 0, Stream: ComputeStream, Duration: 10},
		{ID: "ar", Device: 0, Stream: CommStream, Duration: 10},
	}
	tr, err := runOps(ops, Config{InterferenceSlowdown: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Both progress at rate 1/2 while concurrent: both finish at t=20.
	if tr.Makespan != 20 {
		t.Errorf("makespan = %v, want 20", tr.Makespan)
	}
}

func TestInterferencePartialOverlap(t *testing.T) {
	// comm 4s, compute 12s, slowdown 2: comm runs at 1/2 while compute
	// runs → comm finishes at t=8 (having done 4s of work). Compute did
	// 4s of work by t=8, then runs alone: 8 more seconds → ends t=16.
	ops := []Op{
		{ID: "gemm", Device: 0, Stream: ComputeStream, Duration: 12},
		{ID: "ar", Device: 0, Stream: CommStream, Duration: 4},
	}
	tr, err := runOps(ops, Config{InterferenceSlowdown: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Makespan != 16 {
		t.Errorf("makespan = %v, want 16", tr.Makespan)
	}
}

func TestValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		ops  []Op
		want string
	}{
		{"empty id", []Op{{ID: "", Duration: 1}}, "empty ID"},
		{"negative device", []Op{{ID: "a", Device: -1, Duration: 1}}, "negative device"},
		{"negative duration", []Op{{ID: "a", Duration: -1}}, "invalid duration"},
		{"nan duration", []Op{{ID: "a", Duration: units.Seconds(math.NaN())}}, "invalid duration"},
		{"duplicate id", []Op{{ID: "a", Duration: 1}, {ID: "a", Duration: 1}}, "duplicate"},
		{"unknown dep", []Op{{ID: "a", Duration: 1, Deps: []string{"zz"}}}, "unknown op"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := runOps(tc.ops, Config{})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want containing %q", err, tc.want)
			}
		})
	}
}

func TestDeadlockDetection(t *testing.T) {
	ops := []Op{
		{ID: "a", Device: 0, Stream: ComputeStream, Duration: 1, Deps: []string{"b"}},
		{ID: "b", Device: 0, Stream: CommStream, Duration: 1, Deps: []string{"a"}},
	}
	_, err := runOps(ops, Config{})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("err = %v, want deadlock", err)
	}
}

func TestStreamOrderDeadlock(t *testing.T) {
	// Head-of-line blocking: first op on the stream depends on the
	// second — an in-order stream can never run either.
	ops := []Op{
		{ID: "first", Device: 0, Stream: ComputeStream, Duration: 1, Deps: []string{"second"}},
		{ID: "second", Device: 0, Stream: ComputeStream, Duration: 1},
	}
	_, err := runOps(ops, Config{})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("err = %v, want deadlock", err)
	}
}

func TestZeroDurationOps(t *testing.T) {
	ops := []Op{
		{ID: "a", Device: 0, Stream: ComputeStream, Duration: 0},
		{ID: "b", Device: 0, Stream: ComputeStream, Duration: 5, Deps: []string{"a"}},
	}
	tr, err := runOps(ops, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Makespan != 5 {
		t.Errorf("makespan = %v, want 5", tr.Makespan)
	}
}

func TestLabelTimeAndDevices(t *testing.T) {
	ops := []Op{
		{ID: "a", Device: 0, Stream: ComputeStream, Duration: 2, Label: "gemm"},
		{ID: "b", Device: 1, Stream: ComputeStream, Duration: 3, Label: "gemm"},
		{ID: "c", Device: 1, Stream: CommStream, Duration: 4, Label: "ar"},
	}
	tr, err := runOps(ops, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// "gemm" runs on both devices; LabelTime sums it across them.
	lt := tr.LabelTime()
	if lt["gemm"] != 5 || lt["ar"] != 4 {
		t.Errorf("LabelTime = %v", lt)
	}
}

func TestBusyTime(t *testing.T) {
	ops := []Op{
		{ID: "a", Device: 0, Stream: ComputeStream, Duration: 2},
		{ID: "b", Device: 0, Stream: ComputeStream, Duration: 3, Deps: []string{"a"}},
	}
	tr, err := runOps(ops, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.BusyTime(0, ComputeStream); got != 5 {
		t.Errorf("BusyTime = %v, want 5", got)
	}
	if got := tr.BusyTime(0, CommStream); got != 0 {
		t.Errorf("comm BusyTime = %v, want 0", got)
	}
}

// Property: with no interference, the makespan equals the longest chain
// for a simple fork-join DAG, and never exceeds the serial sum.
func TestMakespanBoundsProperty(t *testing.T) {
	f := func(durs [4]uint8) bool {
		d := func(i int) units.Seconds { return units.Seconds(durs[i]%50) + 1 }
		// fork: a → (b on dev0-comm, c on dev1) → join d.
		ops := []Op{
			{ID: "a", Device: 0, Stream: ComputeStream, Duration: d(0)},
			{ID: "b", Device: 0, Stream: CommStream, Duration: d(1), Deps: []string{"a"}},
			{ID: "c", Device: 1, Stream: ComputeStream, Duration: d(2), Deps: []string{"a"}},
			{ID: "d", Device: 0, Stream: ComputeStream, Duration: d(3), Deps: []string{"b", "c"}},
		}
		tr, err := runOps(ops, Config{})
		if err != nil {
			return false
		}
		longest := d(0) + d(3)
		if d(1) > d(2) {
			longest += d(1)
		} else {
			longest += d(2)
		}
		serial := d(0) + d(1) + d(2) + d(3)
		return math.Abs(float64(tr.Makespan-longest)) < 1e-9 && tr.Makespan <= serial
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: spans never overlap on a single stream and respect deps.
func TestTraceWellFormedProperty(t *testing.T) {
	f := func(n uint8) bool {
		count := int(n)%12 + 2
		ops := make([]Op, count)
		for i := range ops {
			ops[i] = Op{
				ID:       string(rune('a' + i)),
				Device:   i % 2,
				Stream:   Stream(i % 2),
				Duration: units.Seconds(i%5) + 1,
			}
			if i > 0 && i%3 == 0 {
				ops[i].Deps = []string{string(rune('a' + i - 1))}
			}
		}
		tr, err := runOps(ops, Config{})
		if err != nil {
			return false
		}
		byID := make(map[string]Span)
		for _, s := range tr.Spans {
			byID[s.Op.ID] = s
		}
		for _, s := range tr.Spans {
			for _, dep := range s.Op.Deps {
				if byID[dep].End > s.Start {
					return false
				}
			}
			for _, o := range tr.Spans {
				if o.Op.ID == s.Op.ID || o.Op.Device != s.Op.Device || o.Op.Stream != s.Op.Stream {
					continue
				}
				if o.Start < s.End && s.Start < o.End {
					return false // overlap on one stream
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
