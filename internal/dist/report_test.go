package dist

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"twocs/internal/collective"
	"twocs/internal/hw"
	"twocs/internal/kernels"
	"twocs/internal/model"
	"twocs/internal/race"
	"twocs/internal/sim"
	"twocs/internal/telemetry"
	"twocs/internal/units"
)

func sameSeconds(a, b units.Seconds) bool {
	return math.Float64bits(float64(a)) == math.Float64bits(float64(b))
}

// requireSameReport compares every IterationReport field bit for bit.
func requireSameReport(t *testing.T, name string, got, want IterationReport) {
	t.Helper()
	fields := []struct {
		field     string
		got, want units.Seconds
	}{
		{"Makespan", got.Makespan, want.Makespan},
		{"ComputeTime", got.ComputeTime, want.ComputeTime},
		{"TPCommTime", got.TPCommTime, want.TPCommTime},
		{"DPCommTime", got.DPCommTime, want.DPCommTime},
		{"ExposedTPComm", got.ExposedTPComm, want.ExposedTPComm},
		{"ExposedDPComm", got.ExposedDPComm, want.ExposedDPComm},
	}
	for _, f := range fields {
		if !sameSeconds(f.got, f.want) {
			t.Fatalf("%s: %s = %v, trace oracle %v", name, f.field, f.got, f.want)
		}
	}
}

// zooPlan places a Table-2 model at TP x DP on MI210 nodes with an
// inter-node link at 1/8 of the intra-node bandwidth.
func zooPlan(cfg model.Config, tp, dp int) Plan {
	return Plan{
		Model: cfg, TP: tp, DP: dp,
		Cluster: hw.MI210Cluster((tp*dp+3)/4, 1.0/8),
		Algo:    collective.Ring,
	}
}

// TestReportMatchesTraceOracle is the summary path's equivalence gate:
// for every Table-2 model at every TP degree up to 128 that divides it,
// with and without DP, bucketing, interference, faults and the
// optimizer step, the report read from the run summary (Report, and
// Run's report) equals the trace oracle's bit for bit.
func TestReportMatchesTraceOracle(t *testing.T) {
	calc, err := kernels.NewCalculator(hw.MI210)
	if err != nil {
		t.Fatal(err)
	}
	faults := []sim.Faults{{}, {StragglerDevice: 0, StragglerSlowdown: 1.5, CommSlowdown: 1.25}}
	runs := 0
	for _, e := range model.Zoo() {
		for tp := 1; tp <= 128; tp *= 2 {
			if !e.Config.TPDivides(tp) {
				continue
			}
			for _, dp := range []int{1, 4} {
				plan := zooPlan(e.Config, tp, dp)
				timer, err := NewTimer(plan, calc)
				if err != nil {
					t.Fatal(err)
				}
				for _, bucket := range []int{1, 3} {
					c, err := CompileIteration(plan, timer, ScheduleOptions{DPBucketLayers: bucket})
					if err != nil {
						t.Fatal(err)
					}
					for _, slow := range []float64{1, 1.3} {
						for _, f := range faults {
							name := fmt.Sprintf("%s tp=%d dp=%d bucket=%d slow=%v faults=%+v",
								e.Config.Name, tp, dp, bucket, slow, f)
							cfg := sim.Config{InterferenceSlowdown: slow, Faults: f}
							got, err := c.Report(timer, cfg)
							if err != nil {
								t.Fatalf("%s: Report: %v", name, err)
							}
							rep, trace, err := c.Run(timer, cfg)
							if err != nil {
								t.Fatalf("%s: Run: %v", name, err)
							}
							want := *reportFrom(trace)
							requireSameReport(t, name, got, want)
							requireSameReport(t, name+" (Run)", *rep, want)
							runs++
						}
					}
				}
			}
		}
	}
	if runs == 0 {
		t.Fatal("no zoo plan ran")
	}
}

// TestRefillMatchesPerOpPricing checks Refill's price classes: the
// durations it scatters equal pricing every op on its own through
// Timer.Time, as the schedule builder does, under timers the program
// was not compiled under.
func TestRefillMatchesPerOpPricing(t *testing.T) {
	var gpt3 model.Config
	for _, e := range model.Zoo() {
		if e.Config.Name == "GPT-3" {
			gpt3 = e.Config
		}
	}
	cases := []struct {
		plan Plan
		opts ScheduleOptions
	}{
		{testPlan(2, 1), ScheduleOptions{}},
		{testPlan(2, 2), ScheduleOptions{DPBucketLayers: 3}},
		{zooPlan(gpt3, 8, 4), ScheduleOptions{}},
	}
	for _, tc := range cases {
		c, err := CompileIteration(tc.plan, newTimer(t, tc.plan), tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(c.pricing.classes); n >= c.Program().NumOps() {
			t.Errorf("%s: %d price classes for %d ops", tc.plan.Model.Name, n, c.Program().NumOps())
		}
		for _, evo := range []hw.Evolution{hw.Identity(), hw.FlopVsBWScenario(4)} {
			timer := evolvedTimer(t, tc.plan, evo)
			durs, err := c.Refill(timer, nil)
			if err != nil {
				t.Fatal(err)
			}
			ops, err := BuildIteration(tc.plan, timer, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(ops) != len(durs) {
				t.Fatalf("%d refilled durations for %d ops", len(durs), len(ops))
			}
			for i, op := range ops {
				if !sameSeconds(durs[i], op.Duration) {
					t.Fatalf("%s %s op %s: refilled %v, priced alone %v",
						tc.plan.Model.Name, evo.Name, op.ID, durs[i], op.Duration)
				}
			}
		}
	}
}

// reportAllocBound is the steady-state allocation count of one warm
// CompiledIteration.Report (pooled durations and run state): zero.
// CI's "Alloc contracts" step runs TestReportAllocBound by name.
const reportAllocBound = 0

// TestReportAllocBound pins the summary re-time's allocations.
func TestReportAllocBound(t *testing.T) {
	if race.Enabled() {
		t.Skip("allocation counts are exact only without the race detector")
	}
	p := testPlan(2, 2)
	timer := newTimer(t, p)
	c, err := CompileIteration(p, timer, ScheduleOptions{DPBucketLayers: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{InterferenceSlowdown: 1.3, Faults: sim.Faults{CommSlowdown: 1.5}}
	if _, err := c.Report(timer, cfg); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := c.Report(timer, cfg); err != nil {
			t.Fatalf("Report: %v", err)
		}
	})
	if avg > reportAllocBound {
		t.Fatalf("Report allocates %.1f objects/run, bound is %d", avg, reportAllocBound)
	}
}

// opHistograms runs fn under a fresh collector and renders its
// dist.op.*.sim_ns histograms, with their total observation count.
func opHistograms(t *testing.T, fn func()) (string, int64) {
	t.Helper()
	col := telemetry.NewCollector()
	telemetry.Enable(col)
	fn()
	telemetry.Enable(nil)
	var b bytes.Buffer
	var n int64
	for _, h := range col.Snapshot().Deterministic().Histograms {
		if strings.HasPrefix(h.Name, "dist.op.") {
			fmt.Fprintf(&b, "%+v\n", h)
			n += h.Count
		}
	}
	return b.String(), n
}

// TestRefillTelemetryPerOp checks pricing by class keeps the telemetry
// of pricing by op: a warm run records one dist.op.*.sim_ns observation
// per op, with the histograms per-op pricing records.
func TestRefillTelemetryPerOp(t *testing.T) {
	p := testPlan(4, 2)
	timer := newTimer(t, p)
	for _, opts := range []ScheduleOptions{{}, {DPBucketLayers: 2}} {
		c, err := CompileIteration(p, timer, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := opHistograms(t, func() {
			if _, err := BuildIteration(p, timer, opts); err != nil {
				t.Fatal(err)
			}
		})
		got, n := opHistograms(t, func() {
			if _, err := c.Report(timer, sim.Config{}); err != nil {
				t.Fatal(err)
			}
		})
		if wantN := int64(c.Program().NumOps()); n != wantN {
			t.Errorf("%+v: %d dist.op observations, want %d", opts, n, wantN)
		}
		if got != want {
			t.Errorf("%+v: histograms differ from per-op pricing:\n--- per op ---\n%s--- by class ---\n%s", opts, want, got)
		}
	}
}

// BenchmarkReport measures one warm summary re-time of a Table-2
// iteration: GPT-3 at TP 8 x DP 4, 2,976 ops in 31 price classes.
func BenchmarkReport(b *testing.B) {
	var gpt3 model.Config
	for _, e := range model.Zoo() {
		if e.Config.Name == "GPT-3" {
			gpt3 = e.Config
		}
	}
	plan := zooPlan(gpt3, 8, 4)
	calc, err := kernels.NewCalculator(hw.MI210)
	if err != nil {
		b.Fatal(err)
	}
	timer, err := NewTimer(plan, calc)
	if err != nil {
		b.Fatal(err)
	}
	c, err := CompileIteration(plan, timer, ScheduleOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Report(timer, sim.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}
