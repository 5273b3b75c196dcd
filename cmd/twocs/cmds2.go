package main

import (
	"fmt"
	"io"
	"os"

	"twocs/internal/collective"
	"twocs/internal/core"
	"twocs/internal/dist"
	"twocs/internal/hw"
	"twocs/internal/kernels"
	"twocs/internal/report"
	"twocs/internal/sim"
	"twocs/internal/tensor"
	"twocs/internal/units"
)

// This file holds the extension subcommands beyond the paper's figures:
// pipeline parallelism (§6.1.2), MoE expert parallelism (§6.1.1),
// inference (§6.3), number formats (§6.2), Section 5 acceleration
// techniques, ZeRO sharding (§6.1.3), and a Gantt view of a simulated
// iteration.

// evoFlag maps the -flopbw flag to a hardware scenario. The comparison
// against 1 is a default-value sentinel on a freshly parsed flag (the
// string "1" parses to exactly 1.0), not arithmetic on computed floats.
func evoFlag(flopbw float64) hw.Evolution {
	//lint:ignore floatcmp exact default-sentinel check on a parsed flag value
	if flopbw != 1 {
		return hw.FlopVsBWScenario(flopbw)
	}
	return hw.Identity()
}

func cmdPipeline(args []string, w io.Writer) error {
	fs := newFlagSet("pipeline")
	h := fs.Int("h", 16384, "hidden dimension")
	sl := fs.Int("sl", 2048, "sequence length")
	layers := fs.Int("layers", 96, "layer count")
	tp := fs.Int("tp", 16, "tensor-parallel degree within a stage")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := core.FutureConfig(*h, *sl, 1)
	if err != nil {
		return err
	}
	cfg.Layers = *layers
	calc, err := kernels.NewCalculator(hw.MI210)
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("Pipeline parallelism (§6.1.2): H=%d SL=%d L=%d TP=%d", *h, *sl, *layers, *tp),
		"stages", "microbatches", "bubble %", "p2p %", "tp-AR %", "total comm %")
	for _, stages := range []int{2, 4, 8} {
		for _, micro := range []int{4, 16, 64} {
			nodes := (*tp*stages + 3) / 4
			plan := dist.Plan{
				Model: cfg, TP: *tp, DP: 1,
				Cluster: hw.MI210Cluster(nodes, 1.0/8),
				Algo:    collective.Ring,
			}
			timer, err := dist.NewTimer(plan, calc)
			if err != nil {
				return err
			}
			rep, err := dist.AnalyzePipeline(dist.PipelinePlan{
				Plan: plan, Stages: stages, MicroBatches: micro,
			}, timer)
			if err != nil {
				return err
			}
			t.AddRow(fmt.Sprint(stages), fmt.Sprint(micro),
				report.Pct(rep.BubbleFraction), report.Pct(rep.P2PFraction),
				report.Pct(rep.SerializedARFraction), report.Pct(rep.TotalCommFraction()))
		}
	}
	if err := t.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "  killing the bubble needs many micro-batches — i.e. large batches,")
	fmt.Fprintln(w, "  the §6.1.2 tension with memory and convergence.")
	return nil
}

func cmdPrecision(args []string, w io.Writer) error {
	fs := newFlagSet("precision")
	h := fs.Int("h", 8192, "hidden dimension")
	tp := fs.Int("tp", 16, "tensor-parallel degree")
	if err := fs.Parse(args); err != nil {
		return err
	}
	a, err := newAnalyzer()
	if err != nil {
		return err
	}
	cfg, err := core.FutureConfig(*h, 2048, 1)
	if err != nil {
		return err
	}
	rows, err := a.PrecisionStudy(cfg, *tp, hw.Identity(),
		[]tensor.DType{tensor.FP32, tensor.FP16, tensor.BF16, tensor.FP8})
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("Number formats (§6.2): H=%d TP=%d per-layer split", *h, *tp),
		"format", "compute", "serialized comm", "comm fraction (%)")
	for _, r := range rows {
		t.AddRow(r.DT.String(), r.Compute.String(), r.SerializedComm.String(),
			report.Pct(r.CommFraction))
	}
	if err := t.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "  reduced precision speeds everything up but raises the COMM FRACTION:")
	fmt.Fprintln(w, "  compute gains super-linearly, bytes shrink only linearly (§6.2).")
	return nil
}

func cmdTechniques(args []string, w io.Writer) error {
	fs := newFlagSet("techniques")
	h := fs.Int("h", 16384, "hidden dimension")
	tp := fs.Int("tp", 64, "tensor-parallel degree")
	flopbw := fs.Float64("flopbw", 4, "flop-vs-bw hardware scaling")
	if err := fs.Parse(args); err != nil {
		return err
	}
	a, err := newAnalyzer()
	if err != nil {
		return err
	}
	cfg, err := core.FutureConfig(*h, 2048, 1)
	if err != nil {
		return err
	}
	rows, err := a.TechniqueStudy(cfg, *tp, evoFlag(*flopbw))
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("Communication acceleration (§5): H=%d TP=%d flop-vs-bw %gx", *h, *tp, *flopbw),
		"technique", "serialized comm", "comm fraction (%)", "iteration speedup")
	for _, r := range rows {
		t.AddRow(r.Name, r.SerializedComm.String(), report.Pct(r.CommFraction),
			fmt.Sprintf("%.2fx", r.SpeedupVsBaseline))
	}
	if err := t.Render(w); err != nil {
		return err
	}
	// The §5 opening claim, quantified: what must the network do as
	// compute scales?
	comp1, comm1, err := a.MeasuredLayerSplit(cfg, *tp, hw.Identity())
	if err != nil {
		return err
	}
	frac1 := float64(comm1) / float64(comp1+comm1)
	hold, err := a.RequiredNetScale(cfg, *tp, *flopbw, frac1)
	if err != nil {
		return err
	}
	halve, err := a.RequiredNetScale(cfg, *tp, *flopbw, frac1/2)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  to HOLD today's %.0f%% comm fraction under %gx compute scaling the\n", frac1*100, *flopbw)
	fmt.Fprintf(w, "  network must scale %.1fx (commensurate); to HALVE it, %.1fx (\"if not\n", hold, halve)
	fmt.Fprintf(w, "  more\") — the paper's §5 conclusion, quantified.\n")
	return nil
}

func cmdZero(args []string, w io.Writer) error {
	fs := newFlagSet("zero")
	h := fs.Int("h", 8192, "hidden dimension")
	tp := fs.Int("tp", 16, "tensor-parallel degree")
	dp := fs.Int("dp", 8, "data-parallel degree")
	if err := fs.Parse(args); err != nil {
		return err
	}
	a, err := newAnalyzer()
	if err != nil {
		return err
	}
	cfg, err := core.FutureConfig(*h, 2048, 1)
	if err != nil {
		return err
	}
	rows, err := a.ZeROStudy(cfg, *tp, *dp, hw.Identity())
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("ZeRO sharding (§6.1.3): H=%d TP=%d DP=%d per-layer costs", *h, *tp, *dp),
		"scheme", "critical comm", "overlappable comm", "param state/device")
	for _, r := range rows {
		t.AddRow(r.Name, r.CriticalComm.String(), r.OverlappableComm.String(),
			r.PerDeviceStateBytes.String())
	}
	if err := t.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "  ZeRO buys memory with critical-path all-gathers — another face of")
	fmt.Fprintln(w, "  the capacity-vs-communication trade the paper tracks.")
	return nil
}

func cmdMoE(args []string, w io.Writer) error {
	fs := newFlagSet("moe")
	h := fs.Int("h", 16384, "hidden dimension")
	tp := fs.Int("tp", 64, "tensor-parallel degree")
	flopbw := fs.Float64("flopbw", 1, "flop-vs-bw hardware scaling")
	if err := fs.Parse(args); err != nil {
		return err
	}
	a, err := newAnalyzer()
	if err != nil {
		return err
	}
	cfg, err := core.FutureConfig(*h, 2048, 1)
	if err != nil {
		return err
	}
	cfg.Layers = 118
	t := report.NewTable(
		fmt.Sprintf("Mixture-of-Experts (§6.1.1): H=%d TP=%d flop-vs-bw %gx", *h, *tp, *flopbw),
		"experts", "all-to-all", "total comm fraction (%)")
	dense, err := a.SerializedFraction(cfg, *tp, evoFlag(*flopbw))
	if err != nil {
		return err
	}
	t.AddRow("dense", "-", report.Pct(dense.CommFraction()))
	for _, experts := range []int{4, 8, 16, 32} {
		moe, err := a.ProjectMoE(cfg, *tp, experts, evoFlag(*flopbw))
		if err != nil {
			return err
		}
		t.AddRow(fmt.Sprint(experts), moe.AllToAll.String(), report.Pct(moe.CommFraction()))
	}
	return t.Render(w)
}

func cmdInference(args []string, w io.Writer) error {
	fs := newFlagSet("inference")
	if err := fs.Parse(args); err != nil {
		return err
	}
	a, err := newAnalyzer()
	if err != nil {
		return err
	}
	t := report.NewTable("Distributed inference (§6.3): forward-only comm share vs training",
		"model", "TP", "training (%)", "inference (%)")
	for _, spec := range []struct {
		name  string
		h, sl int
		tp    int
	}{
		{"T-NLG-class", 4096, 1024, 16},
		{"PaLM-1x", 16384, 2048, 64},
		{"PaLM-3x", 65536, 4096, 256},
	} {
		cfg, err := core.FutureConfig(spec.h, spec.sl, 1)
		if err != nil {
			return err
		}
		cfg.Layers = 118
		train, err := a.SerializedFraction(cfg, spec.tp, hw.Identity())
		if err != nil {
			return err
		}
		infer, err := a.ProjectInference(cfg, spec.tp, hw.Identity())
		if err != nil {
			return err
		}
		t.AddRow(spec.name, fmt.Sprint(spec.tp),
			report.Pct(train.CommFraction()), report.Pct(infer.CommFraction()))
	}
	return t.Render(w)
}

func cmdGantt(args []string, w io.Writer) error {
	fs := newFlagSet("gantt")
	h := fs.Int("h", 8192, "hidden dimension")
	layers := fs.Int("layers", 2, "layer count to draw")
	tp := fs.Int("tp", 16, "tensor-parallel degree")
	dp := fs.Int("dp", 4, "data-parallel degree")
	width := fs.Int("width", 100, "chart width in columns")
	tracePath := fs.String("trace", "", "also write a Chrome trace-event JSON file (chrome://tracing)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := core.FutureConfig(*h, 2048, 1)
	if err != nil {
		return err
	}
	cfg.Layers = *layers
	nodes := (*tp**dp + 3) / 4
	plan := dist.Plan{
		Model: cfg, TP: *tp, DP: *dp,
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
	c, err := dist.CompileIteration(plan, timer, dist.ScheduleOptions{})
	if err != nil {
		return err
	}
	rep, trace, err := c.Run(timer, sim.Config{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "One training iteration: H=%d L=%d TP=%d DP=%d (makespan %v)\n",
		*h, *layers, *tp, *dp, rep.Makespan)
	fmt.Fprintln(w, "  '#' compute   '=' serialized (TP) comm   '~' overlapped (DP) comm")
	if err := trace.RenderGantt(w, *width); err != nil {
		return err
	}
	_, byLabel := trace.CriticalPath()
	fmt.Fprintln(w, "critical path composition:")
	for _, label := range []string{dist.LabelCompute, dist.LabelTPComm, dist.LabelDPComm} {
		fmt.Fprintf(w, "  %-14s %v (%s of makespan)\n", label, byLabel[label],
			units.Percent(units.Ratio(float64(byLabel[label]), float64(rep.Makespan))))
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.WriteChromeTrace(f); err != nil {
			return err
		}
		fmt.Fprintf(w, "chrome trace written to %s\n", *tracePath)
	}
	return nil
}
