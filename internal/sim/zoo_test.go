package sim_test

import (
	"fmt"
	"reflect"
	"testing"

	"twocs/internal/collective"
	"twocs/internal/dist"
	"twocs/internal/hw"
	"twocs/internal/kernels"
	"twocs/internal/model"
	"twocs/internal/sim"
)

// TestProgramMatchesReferenceZoo is the reference differential at the
// scale the studies run: for every Table-2 model at TP 1 and 8 (where 8
// divides it), DP 1 and 4, the compiled iteration re-timed under every
// differential config (CompiledIteration.Run) must reproduce the
// reference engine's trace of the same ops bit for bit, whole spans
// compared, and its critical path under the first config. The ops are
// rebuilt from the Program in compile order (Ops); dist's
// TestCompiledRunMatchesBuildZoo pins them to the ops BuildIteration
// builds.
func TestProgramMatchesReferenceZoo(t *testing.T) {
	calc, err := kernels.NewCalculator(hw.MI210)
	if err != nil {
		t.Fatal(err)
	}
	runs := 0
	for _, e := range model.Zoo() {
		for _, tp := range []int{1, 8} {
			if !e.Config.TPDivides(tp) {
				continue
			}
			for _, dp := range []int{1, 4} {
				plan := dist.Plan{
					Model: e.Config, TP: tp, DP: dp,
					Cluster: hw.MI210Cluster((tp*dp+3)/4, 1.0/8),
					Algo:    collective.Ring,
				}
				timer, err := dist.NewTimer(plan, calc)
				if err != nil {
					t.Fatal(err)
				}
				c, err := dist.CompileIteration(plan, timer, dist.ScheduleOptions{})
				if err != nil {
					t.Fatal(err)
				}
				durs, err := c.Refill(timer, nil)
				if err != nil {
					t.Fatal(err)
				}
				ops := sim.Ops(c.Program())
				for i := range ops {
					ops[i].Duration = durs[i]
				}
				for ci, cfg := range sim.DifferentialConfigs {
					t.Run(fmt.Sprintf("%s/tp=%d/dp=%d/cfg=%d", e.Config.Name, tp, dp, ci), func(t *testing.T) {
						want, err := sim.ReferenceRun(ops, cfg)
						if err != nil {
							t.Fatalf("reference: %v", err)
						}
						_, got, err := c.Run(timer, cfg)
						if err != nil {
							t.Fatalf("compiled: %v", err)
						}
						sim.RequireSameTrace(t, want, got)
						if ci > 0 {
							return // CriticalPath is quadratic in the spans: one config will do
						}
						wantPath, wantShares := want.CriticalPath()
						gotPath, gotShares := got.CriticalPath()
						if !reflect.DeepEqual(wantPath, gotPath) || !reflect.DeepEqual(wantShares, gotShares) {
							t.Fatal("critical path diverged")
						}
					})
					runs++
				}
			}
		}
	}
	if runs == 0 {
		t.Fatal("no zoo plan ran")
	}
}
