package sim_test

import (
	"fmt"
	"testing"

	"twocs/internal/collective"
	"twocs/internal/dist"
	"twocs/internal/hw"
	"twocs/internal/kernels"
	"twocs/internal/model"
	"twocs/internal/sim"
)

// TestProgramMatchesReferenceZoo is the reference differential at the
// scale the studies run: the compiled iteration of every Table-2 model
// at TP 1 and 8 (where 8 divides it), DP 1 and 4, re-timed under every
// differential config, must reproduce the reference engine's trace of
// the same ops bit for bit.
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
				prog := c.Program()
				ops := append([]sim.Op(nil), sim.Ops(prog)...)
				for i := range ops {
					ops[i].Duration = durs[i]
				}
				for ci, cfg := range sim.DifferentialConfigs {
					t.Run(fmt.Sprintf("%s/tp=%d/dp=%d/cfg=%d", e.Config.Name, tp, dp, ci), func(t *testing.T) {
						want, err := sim.ReferenceRun(ops, cfg)
						if err != nil {
							t.Fatalf("reference: %v", err)
						}
						got, err := sim.RunProgram(prog, durs, cfg)
						if err != nil {
							t.Fatalf("program: %v", err)
						}
						sim.RequireSameTrace(t, want, got)
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
