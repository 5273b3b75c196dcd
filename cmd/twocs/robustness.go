package main

import (
	"context"
	"errors"
	"fmt"
	"io"

	"twocs/internal/collective"
	"twocs/internal/core"
	"twocs/internal/dist"
	"twocs/internal/hw"
	"twocs/internal/kernels"
	"twocs/internal/model"
	"twocs/internal/parallel"
	"twocs/internal/report"
	"twocs/internal/sim"
)

// canceledCell marks a grid cell whose projection never ran because the
// sweep was interrupted; the row's coordinates are still printed so the
// reader can see exactly which points are missing.
const canceledCell = "(canceled)"

// partialSweep classifies a sweep error: a *parallel.PartialError means
// the completed prefix is renderable.
func partialSweep(err error) (*parallel.PartialError, bool) {
	var pe *parallel.PartialError
	ok := errors.As(err, &pe)
	return pe, ok
}

// cmdDegradation runs the fault-injection study: how the paper's
// comm-fraction conclusions shift when the hardware is only mostly
// healthy (degraded link, straggler rank, per-step jitter).
func cmdDegradation(ctx context.Context, args []string, w io.Writer) error {
	fs := newFlagSet("degradation")
	h := fs.Int("hidden", 8192, "hidden dimension")
	sl := fs.Int("sl", 2048, "sequence length")
	tp := fs.Int("tp", 16, "tensor-parallel degree")
	flopbw := fs.Float64("flopbw", 1, "flop-vs-bw hardware scaling (1, 2 or 4)")
	straggler := fs.Float64("straggler", 1.5,
		"straggler slowdown for the simulated-iteration comparison (0 to skip)")
	csv := fs.Bool("csv", false, "emit CSV")
	if err := fs.Parse(args); err != nil {
		return err
	}
	a, err := newAnalyzer()
	if err != nil {
		return err
	}
	cfg, err := core.FutureConfig(*h, *sl, 1)
	if err != nil {
		return err
	}
	rows, err := a.DegradationStudy(ctx, cfg, *tp, evoFlag(*flopbw), core.DefaultFaultScenarios())
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("Comm fraction under partial hardware failure (H=%d SL=%d TP=%d, flop-vs-bw %gx)",
			*h, *sl, *tp, *flopbw),
		"fault", "compute", "serialized comm", "comm fraction (%)", "shift (pp)")
	for _, r := range rows {
		t.AddRow(r.Fault.Name, r.Compute.String(), r.SerializedComm.String(),
			report.Pct(r.CommFraction), fmt.Sprintf("%+.1f", r.DeltaPP))
	}
	if *csv {
		return t.RenderCSV(w)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "  faults stretch only the collectives: the comm share of the iteration")
	fmt.Fprintln(w, "  grows under every partial failure, compounding the paper's trend.")
	if *straggler > 1 {
		if err := degradationSim(cfg, *tp, *straggler, w); err != nil {
			return err
		}
	}
	return nil
}

// degradationSim contrasts one simulated training iteration on healthy
// hardware against the same iteration with a straggler device, using
// the event-level fault hook (sim.Faults) rather than the analytical
// one — the lock-step schedule shows the straggler pacing the group.
func degradationSim(cfg model.Config, tp int, straggler float64, w io.Writer) error {
	cfg.Layers = 2
	const dp = 4
	nodes := (tp*dp + 3) / 4
	plan := dist.Plan{
		Model: cfg, TP: tp, DP: dp,
		Cluster: hw.MI210Cluster(nodes, 1.0/8),
		Algo:    collective.Ring,
	}
	calc, err := kernels.NewCalculator(hw.MI210)
	if err != nil {
		return err
	}
	timer, err := dist.NewTimer(plan, calc)
	if err != nil {
		return err
	}
	healthy, err := dist.RunIteration(plan, timer, dist.ScheduleOptions{})
	if err != nil {
		return err
	}
	faulted, err := dist.RunIteration(plan, timer, dist.ScheduleOptions{
		Faults: sim.Faults{StragglerDevice: 0, StragglerSlowdown: straggler},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  simulated iteration: healthy %v, straggler %.2fx -> %v (%.2fx longer)\n",
		healthy.Makespan, straggler, faulted.Makespan,
		float64(faulted.Makespan)/float64(healthy.Makespan))
	return nil
}
