// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, each printing the rows/series the paper reports (once) and
// timing the underlying analysis. Run with:
//
//	go test -bench=. -benchmem
//
// Paper-vs-measured numbers are catalogued in EXPERIMENTS.md.
package twocs_test

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"

	"twocs"
	"twocs/internal/core"
	"twocs/internal/dist"
	"twocs/internal/hw"
	"twocs/internal/model"
	"twocs/internal/opmodel"
	"twocs/internal/race"
	"twocs/internal/report"
	"twocs/internal/units"
)

var (
	analyzerOnce sync.Once
	analyzer     *twocs.Analyzer
	analyzerErr  error
)

// sharedAnalyzer builds the standard BERT/MI210 analyzer once per run.
func sharedAnalyzer(b *testing.B) *twocs.Analyzer {
	b.Helper()
	analyzerOnce.Do(func() {
		analyzer, analyzerErr = twocs.NewAnalyzer()
	})
	if analyzerErr != nil {
		b.Fatal(analyzerErr)
	}
	return analyzer
}

var printedOnce sync.Map

// printOnce renders a table the first time a benchmark runs.
func printOnce(b *testing.B, key string, render func()) {
	b.Helper()
	if _, done := printedOnce.LoadOrStore(key, true); !done {
		fmt.Println()
		render()
	}
}

// --- Table 2 -------------------------------------------------------------

func BenchmarkTable2ModelZoo(b *testing.B) {
	printOnce(b, "table2", func() {
		t := report.NewTable("Table 2: NLP model hyperparameters (paper vs computed sizes)",
			"model", "year", "layers", "H", "heads", "SL", "FC", "type",
			"paper (B)", "computed (B)")
		for _, e := range twocs.Zoo() {
			c := e.Config
			t.AddRow(c.Name, fmt.Sprint(e.Year), fmt.Sprint(c.Layers),
				fmt.Sprint(c.Hidden), fmt.Sprint(c.Heads), fmt.Sprint(c.SeqLen),
				fmt.Sprint(c.FCDim), c.Kind.String(),
				report.F(e.PaperSizeB), report.F(c.Params()/1e9))
		}
		t.Render(os.Stdout)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range twocs.Zoo() {
			_ = e.Config.Params()
		}
	}
}

// --- Table 3 -------------------------------------------------------------

func BenchmarkTable3SweepSpace(b *testing.B) {
	printOnce(b, "table3", func() {
		t := report.NewTable("Table 3: parameters and setup of models studied",
			"parameter", "values")
		t.AddRow("H", fmt.Sprint(core.Table3Hs()))
		t.AddRow("SL", fmt.Sprint(core.Table3SLs()))
		t.AddRow("B", fmt.Sprint(core.Table3Bs()))
		t.AddRow("TP degree", fmt.Sprint(core.Table3TPs()))
		t.AddRow("DP degree", "any (analysis is DP-degree agnostic)")
		t.AddRow("projected configurations", fmt.Sprint(core.SweepConfigCount()))
		t.Render(os.Stdout)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for _, h := range core.Table3Hs() {
			for _, sl := range core.Table3SLs() {
				cfg, err := core.FutureConfig(h, sl, 1)
				if err != nil {
					b.Fatal(err)
				}
				_ = cfg
				n += len(core.Table3TPs())
			}
		}
		if n != core.SweepConfigCount() {
			b.Fatalf("sweep enumeration mismatch: %d", n)
		}
	}
}

// --- Figure 6 ------------------------------------------------------------

func BenchmarkFigure6MemoryTrends(b *testing.B) {
	capAt := func(year int) (float64, error) {
		c, err := hw.CapacityAt(year)
		return float64(c), err
	}
	printOnce(b, "fig6", func() {
		rows, err := core.MemoryTrend(twocs.Zoo(), capAt)
		if err != nil {
			b.Fatal(err)
		}
		t := report.NewTable("Figure 6: model memory demand (H·SL) vs device capacity, normalized to BERT",
			"model", "year", "demand", "capacity", "gap")
		var gaps []float64
		for _, r := range rows {
			t.AddRow(r.Model, fmt.Sprint(r.Year), report.F(r.NormDemand),
				report.F(r.NormCapacity), report.F(r.NormDemand/r.NormCapacity))
			gaps = append(gaps, r.NormDemand/r.NormCapacity)
		}
		t.Render(os.Stdout)
		fmt.Printf("  gap shape: %s (paper: the gap widens every generation)\n",
			report.Sparkline(gaps))
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.MemoryTrend(twocs.Zoo(), capAt); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 7 ------------------------------------------------------------

func BenchmarkFigure7AlgorithmicScaling(b *testing.B) {
	printOnce(b, "fig7", func() {
		rows, err := twocs.AlgorithmicScaling(twocs.Zoo())
		if err != nil {
			b.Fatal(err)
		}
		t := report.NewTable("Figure 7: algorithmic slack (SL·B) and edge ((H+SL)/TP), normalized to BERT",
			"model", "norm slack", "norm edge")
		for _, r := range rows {
			t.AddRow(r.Model, report.F(r.NormSlack), report.F(r.NormEdge))
		}
		t.Render(os.Stdout)
		last := rows[len(rows)-1]
		fmt.Printf("  slack drop %s (paper ~75%%), edge drop %s (paper ~80%%)\n",
			units.Percent(1-last.NormSlack), units.Percent(1-last.NormEdge))
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := twocs.AlgorithmicScaling(twocs.Zoo()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 9b -----------------------------------------------------------

func BenchmarkFigure9bTPScaling(b *testing.B) {
	printOnce(b, "fig9b", func() {
		ests, err := twocs.EstimateRequiredTP(twocs.Zoo())
		if err != nil {
			b.Fatal(err)
		}
		t := report.NewTable("Figure 9b: required TP scaling p/s since Megatron-LM_BERT (paper: 40-60x for the largest)",
			"model", "year", "p", "s", "p/s", "required TP (x8)")
		for _, e := range ests {
			t.AddRow(e.Model, fmt.Sprint(e.Year), report.F(e.SizeRatio),
				report.F(e.CapacityScale), report.F(e.TPScale), report.F(e.RequiredTP))
		}
		t.Render(os.Stdout)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := twocs.EstimateRequiredTP(twocs.Zoo()); err != nil {
			b.Fatal(err)
		}
	}
}

// blueConfigs are the paper's highlighted (H, SL, TP) combinations in
// Figures 10/12: each model at roughly its required TP degree.
var blueConfigs = []struct {
	name      string
	h, sl, tp int
}{
	{"~T-NLG (H=4K)", 4096, 2048, 16},
	{"~PaLM-1x (H=16K)", 16384, 2048, 64},
	{"PaLM-3x (H=64K)", 65536, 4096, 256},
}

func serializedRow(b *testing.B, a *twocs.Analyzer, evo twocs.Evolution) []float64 {
	b.Helper()
	out := make([]float64, 0, len(blueConfigs))
	for _, bc := range blueConfigs {
		cfg, err := twocs.FutureConfig(bc.h, bc.sl, 1)
		if err != nil {
			b.Fatal(err)
		}
		p, err := a.SerializedFraction(cfg, bc.tp, evo)
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, p.CommFraction())
	}
	return out
}

// --- Figure 10 -----------------------------------------------------------

func BenchmarkFigure10SerializedComm(b *testing.B) {
	a := sharedAnalyzer(b)
	printOnce(b, "fig10", func() {
		t := report.NewTable("Figure 10: serialized comm fraction on today's hardware (paper band: 20-50%)",
			"config", "TP", "comm %")
		fr := serializedRow(b, a, twocs.Today())
		for i, bc := range blueConfigs {
			t.AddRow(bc.name, fmt.Sprint(bc.tp), report.Pct(fr[i]))
		}
		t.Render(os.Stdout)
		pts, err := a.SerializedSweepCtx(context.Background(), core.Table3Hs(), core.Table3SLs(),
			core.Table3TPs(), 1, twocs.Today())
		if err != nil {
			b.Fatal(err)
		}
		lo, hi := 1.0, 0.0
		for _, p := range pts {
			if p.Fraction < lo {
				lo = p.Fraction
			}
			if p.Fraction > hi {
				hi = p.Fraction
			}
		}
		fmt.Printf("  full %d-point grid range: %s .. %s\n",
			len(pts), units.Percent(lo), units.Percent(hi))
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serializedRow(b, a, twocs.Today())
	}
}

// --- Figure 11 -----------------------------------------------------------

func BenchmarkFigure11OverlappedComm(b *testing.B) {
	a := sharedAnalyzer(b)
	hs := []int{1024, 4096, 16384}
	slbs := []int{1024, 4096, 16384}
	printOnce(b, "fig11", func() {
		pts, err := a.OverlappedSweepCtx(context.Background(), hs, slbs, 16, twocs.Today())
		if err != nil {
			b.Fatal(err)
		}
		t := report.NewTable("Figure 11: overlapped comm as % of compute, TP=16 (paper band: 17-140%; falls with SL·B, higher at small H)",
			"H", "SL·B", "overlap %")
		for _, p := range pts {
			t.AddRow(fmt.Sprint(p.H), fmt.Sprint(p.SLB), fmt.Sprintf("%.1f", p.Percent))
		}
		t.Render(os.Stdout)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg, err := twocs.FutureConfig(4096, 4096, 1)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := a.OverlappedPercent(cfg, 16, twocs.Today()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 12 -----------------------------------------------------------

func BenchmarkFigure12HardwareEvolutionSerialized(b *testing.B) {
	a := sharedAnalyzer(b)
	printOnce(b, "fig12", func() {
		t := report.NewTable("Figure 12: serialized comm fraction under flop-vs-bw evolution (paper: 20-50% -> 30-65% -> 40-75%)",
			"config", "1x", "2x", "4x")
		r1 := serializedRow(b, a, twocs.Today())
		r2 := serializedRow(b, a, twocs.FlopVsBW(2))
		r4 := serializedRow(b, a, twocs.FlopVsBW(4))
		for i, bc := range blueConfigs {
			t.AddRow(bc.name, report.Pct(r1[i]), report.Pct(r2[i]), report.Pct(r4[i]))
		}
		t.Render(os.Stdout)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serializedRow(b, a, twocs.FlopVsBW(4))
	}
}

// --- Figure 13 -----------------------------------------------------------

func BenchmarkFigure13HardwareEvolutionOverlapped(b *testing.B) {
	a := sharedAnalyzer(b)
	grid := []struct{ h, slb int }{{1024, 1024}, {4096, 4096}, {16384, 4096}}
	row := func(evo twocs.Evolution) []float64 {
		out := make([]float64, 0, len(grid))
		for _, g := range grid {
			cfg, err := twocs.FutureConfig(g.h, g.slb, 1)
			if err != nil {
				b.Fatal(err)
			}
			pct, err := a.OverlappedPercent(cfg, 16, evo)
			if err != nil {
				b.Fatal(err)
			}
			out = append(out, pct)
		}
		return out
	}
	printOnce(b, "fig13", func() {
		t := report.NewTable("Figure 13: overlapped comm as % of compute under evolution (paper: 50-100% at 2x, 80-210% at 4x; >=100 exposed)",
			"H", "SL·B", "1x", "2x", "4x")
		r1, r2, r4 := row(twocs.Today()), row(twocs.FlopVsBW(2)), row(twocs.FlopVsBW(4))
		for i, g := range grid {
			t.AddRow(fmt.Sprint(g.h), fmt.Sprint(g.slb),
				fmt.Sprintf("%.0f", r1[i]), fmt.Sprintf("%.0f", r2[i]),
				fmt.Sprintf("%.0f", r4[i]))
		}
		t.Render(os.Stdout)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row(twocs.FlopVsBW(4))
	}
}

// --- Figure 14 -----------------------------------------------------------

func BenchmarkFigure14CaseStudy(b *testing.B) {
	a := sharedAnalyzer(b)
	cfg, err := twocs.FutureConfig(65536, 4096, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Layers = 16 // fractions are stable beyond ~8 layers
	run := func() []twocs.CaseResult {
		res, err := a.CaseStudyCtx(context.Background(), cfg, 128, 4, twocs.FlopVsBW(4), twocs.Fig14Scenarios())
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	printOnce(b, "fig14", func() {
		t := report.NewTable("Figure 14: end-to-end case study H=64K B=1 SL=4K TP=128 4x (paper: 47% serialized + 9% hidden DP)",
			"scenario", "makespan", "compute %", "serialized %", "DP hidden %", "DP exposed %")
		for _, r := range run() {
			t.AddRow(r.Scenario.Name, r.Makespan.String(), report.Pct(r.ComputeFrac),
				report.Pct(r.SerializedCommFrac), report.Pct(r.HiddenDPFrac),
				report.Pct(r.ExposedDPFrac))
		}
		t.Render(os.Stdout)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// --- Figure 15 -----------------------------------------------------------

func validationTimer(b *testing.B, a *twocs.Analyzer) *dist.Timer {
	b.Helper()
	truth, err := a.GroundTruthTimer(a.BaseCfg, a.BaseTP, hw.Identity())
	if err != nil {
		b.Fatal(err)
	}
	return truth
}

func BenchmarkFigure15aGEMMModel(b *testing.B) {
	a := sharedAnalyzer(b)
	truth := validationTimer(b, a)
	run := func() (opmodel.Validation, opmodel.Validation) {
		vs, err := opmodel.ValidateOpSweep(a.OpModel, truth, "fwd.fc.fc1", "gemm-vs-sl", 4, opmodel.SweepSL)
		if err != nil {
			b.Fatal(err)
		}
		vh, err := opmodel.ValidateOpSweep(a.OpModel, truth, "fwd.fc.fc1", "gemm-vs-h", 4, opmodel.SweepH)
		if err != nil {
			b.Fatal(err)
		}
		return vs, vh
	}
	printOnce(b, "fig15a", func() {
		vs, vh := run()
		t := report.NewTable("Figure 15a: GEMM operator-model accuracy (paper: ~15% geomean)",
			"sweep", "geomean err %", "max err %")
		t.AddRow(vs.Name, fmt.Sprintf("%.1f", vs.GeoMeanErr*100), fmt.Sprintf("%.1f", vs.MaxErr*100))
		t.AddRow(vh.Name, fmt.Sprintf("%.1f", vh.GeoMeanErr*100), fmt.Sprintf("%.1f", vh.MaxErr*100))
		t.Render(os.Stdout)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

func BenchmarkFigure15bLayerNormModel(b *testing.B) {
	a := sharedAnalyzer(b)
	truth := validationTimer(b, a)
	run := func() (opmodel.Validation, opmodel.Validation) {
		vs, err := opmodel.ValidateOpSweep(a.OpModel, truth, "fwd.attn.layernorm", "ln-vs-sl", 4, opmodel.SweepSL)
		if err != nil {
			b.Fatal(err)
		}
		vh, err := opmodel.ValidateOpSweep(a.OpModel, truth, "fwd.attn.layernorm", "ln-vs-h", 4, opmodel.SweepH)
		if err != nil {
			b.Fatal(err)
		}
		return vs, vh
	}
	printOnce(b, "fig15b", func() {
		vs, vh := run()
		t := report.NewTable("Figure 15b: LayerNorm operator-model accuracy (paper: ~7% geomean)",
			"sweep", "geomean err %", "max err %")
		t.AddRow(vs.Name, fmt.Sprintf("%.1f", vs.GeoMeanErr*100), fmt.Sprintf("%.1f", vs.MaxErr*100))
		t.AddRow(vh.Name, fmt.Sprintf("%.1f", vh.GeoMeanErr*100), fmt.Sprintf("%.1f", vh.MaxErr*100))
		t.Render(os.Stdout)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

func BenchmarkFigure15cAllReduceModel(b *testing.B) {
	a := sharedAnalyzer(b)
	truth := validationTimer(b, a)
	sizes := []units.Bytes{
		units.Bytes(512 * units.KiB), units.Bytes(2 * units.MiB),
		units.Bytes(8 * units.MiB), units.Bytes(32 * units.MiB),
		units.Bytes(128 * units.MiB), units.Bytes(512 * units.MiB),
	}
	run := func() opmodel.Validation {
		v, err := opmodel.ValidateAllReduce(a.OpModel, truth, a.BaseTP, sizes)
		if err != nil {
			b.Fatal(err)
		}
		return v
	}
	printOnce(b, "fig15c", func() {
		v := run()
		t := report.NewTable("Figure 15c: all-reduce operator-model accuracy (paper: ~11% geomean)",
			"size", "measured", "projected", "err %")
		for _, p := range v.Points {
			t.AddRow(units.Bytes(p.X).String(), p.Measured.String(), p.Projected.String(),
				fmt.Sprintf("%.1f", 100*relErr(float64(p.Projected), float64(p.Measured))))
		}
		t.Render(os.Stdout)
		fmt.Printf("  geomean error: %.1f%% (paper ~11%%)\n", v.GeoMeanErr*100)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// --- Sweep engine ---------------------------------------------------------
//
// The grid sweeps run on the internal/parallel worker pool with memoized
// timer substrates and operator graphs. The Sequential/Parallel pairs
// measure the same full Table 3 grids at Workers=1 and Workers=4; their
// outputs are byte-identical (asserted by the equivalence tests in
// internal/core), so the pairs differ only in scheduling.

// sweepAnalyzer builds a fresh analyzer so per-benchmark worker settings
// and ledger growth do not leak into the shared one.
func sweepAnalyzer(tb testing.TB, workers int) *twocs.Analyzer {
	tb.Helper()
	a, err := twocs.NewAnalyzer()
	if err != nil {
		tb.Fatal(err)
	}
	a.Workers = workers
	return a
}

func benchSerializedSweep(b *testing.B, workers int) {
	a := sweepAnalyzer(b, workers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.SerializedSweepCtx(context.Background(), core.Table3Hs(), core.Table3SLs(),
			core.Table3TPs(), 1, twocs.Today()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSequentialSerializedSweep(b *testing.B) { benchSerializedSweep(b, 1) }
func BenchmarkParallelSerializedSweep(b *testing.B)   { benchSerializedSweep(b, 4) }

func benchOverlappedSweep(b *testing.B, workers int) {
	a := sweepAnalyzer(b, workers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.OverlappedSweepCtx(context.Background(), core.Table3Hs(), core.Table3SLs(),
			16, twocs.Today()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSequentialOverlappedSweep(b *testing.B) { benchOverlappedSweep(b, 1) }
func BenchmarkParallelOverlappedSweep(b *testing.B)   { benchOverlappedSweep(b, 4) }

// evolutionGrid is one iteration of BenchmarkSerializedEvolutionGrid:
// the Table-3 serialized grid under three evolutions.
func evolutionGrid(a *twocs.Analyzer) error {
	evos := []twocs.Evolution{twocs.Today(), twocs.FlopVsBW(2), twocs.FlopVsBW(4)}
	_, err := a.SerializedEvolutionGridCtx(context.Background(), core.Table3Hs(), core.Table3SLs(),
		core.Table3TPs(), 1, evos)
	return err
}

func BenchmarkSerializedEvolutionGrid(b *testing.B) {
	a := sweepAnalyzer(b, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := evolutionGrid(a); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSerializedEvolutionGridAllocBound pins the grid's allocations per
// call once the memos are warm: they are per-call setup (tasks, prices,
// the result grid, the worker pool), not per row. Each worker adds 8;
// the worker counts are explicit so the bounds hold on any host.
func TestSerializedEvolutionGridAllocBound(t *testing.T) {
	if race.Enabled() {
		t.Skip("allocation counts are exact only without the race detector")
	}
	for _, tc := range []struct {
		workers int
		bound   float64
	}{
		{1, 47},
		{4, 63},
	} {
		a := sweepAnalyzer(t, tc.workers)
		if avg := testing.AllocsPerRun(20, func() {
			if err := evolutionGrid(a); err != nil {
				t.Fatal(err)
			}
		}); avg > tc.bound {
			t.Errorf("workers=%d: grid allocates %.0f objects/call, bound is %.0f", tc.workers, avg, tc.bound)
		}
	}
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return 0
	}
	d := got - want
	if d < 0 {
		d = -d
	}
	return d / want
}

// --- §4.3.8 profiling speedup ---------------------------------------------

func BenchmarkProfilingSpeedup(b *testing.B) {
	run := func() (float64, float64) {
		e, err := model.LookupZoo("BERT")
		if err != nil {
			b.Fatal(err)
		}
		a, err := core.NewAnalyzer(hw.MI210Cluster(1, 0), e.Config, 4)
		if err != nil {
			b.Fatal(err)
		}
		var exhaustive units.Seconds
		for _, h := range core.Table3Hs() {
			for _, sl := range core.Table3SLs() {
				cfg, err := core.FutureConfig(h, sl, 1)
				if err != nil {
					b.Fatal(err)
				}
				cfg.Layers = 96
				for _, tp := range core.Table3TPs() {
					if err := cfg.ValidateTP(tp); err != nil {
						continue
					}
					c, err := a.ExhaustiveIterationCost(cfg, tp)
					if err != nil {
						b.Fatal(err)
					}
					exhaustive += c
				}
			}
		}
		if _, err := a.OverlappedSweepCtx(context.Background(), core.Table3Hs(), core.Table3SLs(), 16, hw.Identity()); err != nil {
			b.Fatal(err)
		}
		speedup := float64(exhaustive) / float64(a.StrategyLedger.Total())

		var fwd, total units.Seconds
		for _, r := range a.Baseline.Records {
			total += r.Time
			if r.Op.Phase == model.Forward {
				fwd += r.Time
			}
		}
		return speedup, float64(total) / float64(total-fwd)
	}
	printOnce(b, "speedup", func() {
		s, roi := run()
		fmt.Printf("Profiling-cost comparison (§4.3.8): strategy speedup %.0fx (paper ~2100x), ROI speedup %.2fx (paper ~1.5x)\n", s, roi)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
