package sim

import (
	"math"
	"testing"
	"time"

	"twocs/internal/units"
)

func TestFaultsValidate(t *testing.T) {
	good := []Faults{
		{},
		{StragglerDevice: 2, StragglerSlowdown: 1.5},
		{CommSlowdown: 3},
		{StragglerSlowdown: 1, CommSlowdown: 1},
	}
	for _, f := range good {
		if err := f.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", f, err)
		}
	}
	bad := []Faults{
		{StragglerSlowdown: 0.5},
		{CommSlowdown: -1},
		{StragglerSlowdown: math.NaN()},
		{CommSlowdown: math.Inf(1)},
		{StragglerDevice: -1, StragglerSlowdown: 2},
		// Finite each, but their product overflows.
		{StragglerDevice: 0, StragglerSlowdown: 1e200, CommSlowdown: 1e200},
	}
	for _, f := range bad {
		if err := f.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", f)
		}
	}
}

// TestRunRejectsInvalidFaults checks every engine refuses a
// configuration it cannot run. The overflow cases once made a lane's
// rate 0 and the run spin forever, so each run is guarded by a timeout
// that turns a regression into a failure instead of a hung suite.
func TestRunRejectsInvalidFaults(t *testing.T) {
	// A comm op on device 0 overlapping a compute op there: every
	// factor — straggler, comm derating, interference — applies to it.
	ops := []Op{
		{ID: "gemm", Device: 0, Stream: ComputeStream, Duration: units.Seconds(1)},
		{ID: "ar", Device: 0, Stream: CommStream, Duration: units.Seconds(1)},
	}
	p, err := Compile(ops)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"straggler below 1", Config{Faults: Faults{StragglerSlowdown: 0.5}}},
		{"straggler x comm overflows", Config{Faults: Faults{StragglerDevice: 0, StragglerSlowdown: 1e200, CommSlowdown: 1e200}}},
		{"infinite interference", Config{InterferenceSlowdown: math.Inf(1)}},
		{"NaN interference", Config{InterferenceSlowdown: math.NaN()}},
		{"interference x straggler overflows", Config{InterferenceSlowdown: 1e308, Faults: Faults{StragglerDevice: 0, StragglerSlowdown: 1e10}}},
	} {
		engines := []struct {
			name string
			run  func() error
		}{
			{"Program.RunReuse", func() error { _, err := runOps(ops, tc.cfg); return err }},
			{"referenceRun", func() error { _, err := referenceRun(ops, tc.cfg); return err }},
			{"Program.Summarize", func() error { _, err := p.Summarize(p.NewState(), durations(ops), tc.cfg); return err }},
		}
		for _, e := range engines {
			done := make(chan error, 1)
			go func() { done <- e.run() }()
			select {
			case err := <-done:
				if err == nil {
					t.Errorf("%s: %s accepted %+v", tc.name, e.name, tc.cfg)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s: %s did not return within 5 s", tc.name, e.name)
			}
		}
	}
}

func TestStragglerStretchesOnlyItsDevice(t *testing.T) {
	// Two independent devices doing identical 1s compute; throttling
	// device 1 by 2x must double only its span and hence the makespan.
	ops := []Op{
		{ID: "d0", Device: 0, Stream: ComputeStream, Duration: units.Seconds(1)},
		{ID: "d1", Device: 1, Stream: ComputeStream, Duration: units.Seconds(1)},
	}
	tr, err := runOps(ops, Config{Faults: Faults{StragglerDevice: 1, StragglerSlowdown: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(tr.Makespan); math.Abs(got-2) > 1e-12 {
		t.Fatalf("makespan = %v, want 2s", tr.Makespan)
	}
	for _, s := range tr.Spans {
		want := 1.0
		if s.Op.Device == 1 {
			want = 2.0
		}
		if got := float64(s.Duration()); math.Abs(got-want) > 1e-12 {
			t.Errorf("op %s executed in %vs, want %vs", s.Op.ID, got, want)
		}
	}
}

func TestCommSlowdownStretchesCommOnly(t *testing.T) {
	// Sequential compute then comm: a 3x comm derating stretches the
	// collective but not the kernel.
	ops := []Op{
		{ID: "gemm", Device: 0, Stream: ComputeStream, Duration: units.Seconds(1)},
		{ID: "ar", Device: 0, Stream: CommStream, Duration: units.Seconds(1), Deps: []string{"gemm"}},
	}
	tr, err := runOps(ops, Config{Faults: Faults{CommSlowdown: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(tr.Makespan); math.Abs(got-4) > 1e-12 {
		t.Fatalf("makespan = %v, want 4s (1 compute + 3 comm)", tr.Makespan)
	}
}

func TestFaultsComposeWithInterference(t *testing.T) {
	// Concurrent compute+comm on one device under both interference and
	// a comm fault: the comm op pays both factors while overlapped.
	ops := []Op{
		{ID: "gemm", Device: 0, Stream: ComputeStream, Duration: units.Seconds(1)},
		{ID: "ar", Device: 0, Stream: DPCommStream, Duration: units.Seconds(1)},
	}
	healthy, err := runOps(ops, Config{InterferenceSlowdown: 2})
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := runOps(ops, Config{InterferenceSlowdown: 2, Faults: Faults{CommSlowdown: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if faulted.Makespan <= healthy.Makespan {
		t.Fatalf("comm fault under interference did not stretch makespan: %v <= %v",
			faulted.Makespan, healthy.Makespan)
	}
}

func TestZeroFaultsIsIdentity(t *testing.T) {
	ops := []Op{
		{ID: "gemm", Device: 0, Stream: ComputeStream, Duration: units.Seconds(1)},
		{ID: "ar", Device: 0, Stream: CommStream, Duration: units.Seconds(2), Deps: []string{"gemm"}},
	}
	base, err := runOps(ops, Config{})
	if err != nil {
		t.Fatal(err)
	}
	withZero, err := runOps(ops, Config{Faults: Faults{}})
	if err != nil {
		t.Fatal(err)
	}
	if base.Makespan != withZero.Makespan {
		t.Fatalf("zero Faults changed makespan: %v != %v", withZero.Makespan, base.Makespan)
	}
}
