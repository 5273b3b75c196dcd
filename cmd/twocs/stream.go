package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"twocs/internal/core"
	"twocs/internal/hw"
	"twocs/internal/report"
	"twocs/internal/stream"
)

// cmdSweepStream is the streaming design-space search: the serialized
// evolution grid flows row-by-row into an NDJSON or CSV sink (bounded
// memory at any grid size) while optional online reducers keep the
// interesting slice — the K best configurations, the 3-objective
// Pareto frontier, and per-axis comm-fraction marginals. Rows are
// emitted in grid order; output is byte-identical at any -workers
// count. An interrupted run still ends with a trailer row naming the
// reason, and the digests summarize the emitted prefix.
func cmdSweepStream(ctx context.Context, args []string, w io.Writer) error {
	fs := newFlagSet("sweep-stream")
	out := fs.String("out", "-", "row destination: a file path, or - for stdout")
	format := fs.String("format", "ndjson", "row format: ndjson or csv")
	b := fs.Int("b", 1, "batch size")
	scenarios := fs.Int("scenarios", 0,
		"flop-vs-bw scenario count, evenly spanning 1..flopbw-max (0 = the paper's 1x/2x/4x)")
	flopbwMax := fs.Float64("flopbw-max", 4, "largest flop-vs-bw ratio when -scenarios is set")
	topK := fs.Int("topk", 0, "print the K best configurations by iteration time (0 = off)")
	pareto := fs.Bool("pareto", false, "print the (iter time, comm fraction, memory) Pareto frontier")
	marginals := fs.Bool("marginals", false, "print per-axis comm-fraction marginals")
	partial := fs.Bool("partial", false,
		"on interruption, back-fill never-computed grid points as canceled rows (null objectives) so the artifact keeps the full grid shape")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *format != "ndjson" && *format != "csv" {
		return fmt.Errorf("unknown -format %q (want ndjson or csv)", *format)
	}
	if *topK < 0 {
		return fmt.Errorf("negative -topk %d", *topK)
	}
	evos, err := scenarioList(*scenarios, *flopbwMax)
	if err != nil {
		return err
	}
	a, err := newAnalyzer()
	if err != nil {
		return err
	}

	rowDst := w
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		rowDst = f
	}
	var writer stream.Sink
	if *format == "csv" {
		writer = stream.NewCSV(rowDst)
	} else {
		writer = stream.NewNDJSON(rowDst)
	}

	var count stream.Discard
	sinks := []stream.Sink{writer, &count}
	var top *stream.TopK
	if *topK > 0 {
		top, err = stream.NewTopK(*topK)
		if err != nil {
			return err
		}
		sinks = append(sinks, top)
	}
	var front *stream.Pareto
	if *pareto {
		front = stream.NewPareto()
		sinks = append(sinks, front)
	}
	var marg *stream.Marginals
	if *marginals {
		marg = stream.NewMarginals()
		sinks = append(sinks, marg)
	}

	streamFn := a.StreamEvolutionGridCtx
	if *partial {
		streamFn = a.StreamEvolutionGridPartialCtx
	}
	streamErr := streamFn(ctx, core.Table3Hs(), core.Table3SLs(), core.Table3TPs(),
		*b, evos, stream.Multi(sinks...))
	if *out != "-" {
		fmt.Fprintf(os.Stderr, "twocs: streamed %d rows to %s\n", count.Rows, *out)
	}

	// The digests summarize whatever prefix reached the sinks — for a
	// complete run, the full grid; for an interrupted one, the rows the
	// trailer accounts for.
	if top != nil {
		if err := renderTopK(w, top); err != nil {
			return err
		}
	}
	if front != nil {
		if err := renderPareto(w, front); err != nil {
			return err
		}
	}
	if marg != nil {
		if err := renderMarginals(w, marg); err != nil {
			return err
		}
	}
	return streamErr
}

// scenarioList expands the -scenarios/-flopbw-max flags into hardware
// scenarios via hw.RatioScenario: 0 keeps the paper's three points
// (1x/2x/4x); N >= 1 spans [1, max] with N evenly spaced flop-vs-bw
// ratios (N=1 is just max).
func scenarioList(n int, max float64) ([]hw.Evolution, error) {
	if n < 0 {
		return nil, fmt.Errorf("negative -scenarios %d", n)
	}
	ratios := []float64{1, 2, 4}
	if n > 0 {
		if max < 1 {
			return nil, fmt.Errorf("-flopbw-max %g below 1", max)
		}
		ratios = []float64{max}
	}
	if n > 1 {
		ratios = make([]float64, n)
		for i := range ratios {
			ratios[i] = 1 + (max-1)*float64(i)/float64(n-1)
		}
	}
	evos := make([]hw.Evolution, len(ratios))
	for i, r := range ratios {
		evos[i] = hw.RatioScenario(r)
	}
	return evos, nil
}

func addRowTo(t *report.Table, rank string, r stream.Row) {
	t.AddRow(rank, r.Evo, fmt.Sprint(r.H), fmt.Sprint(r.SL), fmt.Sprint(r.B),
		fmt.Sprint(r.TP), r.IterTime.String(), report.Pct(r.CommFrac),
		r.MemBytes.String())
}

// renderCanceled notes the canceled rows a reducer skipped — only when
// there were any, so complete-run output is byte-identical to before.
func renderCanceled(w io.Writer, n int64) {
	if n > 0 {
		fmt.Fprintf(w, "  (%d canceled rows excluded from this digest)\n", n)
	}
}

func renderTopK(w io.Writer, top *stream.TopK) error {
	best := top.Best()
	t := report.NewTable(fmt.Sprintf("Top %d configurations by projected iteration time", len(best)),
		"rank", "evo", "H", "SL", "B", "TP", "iter time", "comm (%)", "mem/device")
	for i, r := range best {
		addRowTo(t, fmt.Sprint(i+1), r)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	renderCanceled(w, top.Canceled())
	return nil
}

func renderPareto(w io.Writer, front *stream.Pareto) error {
	rows := front.Frontier()
	t := report.NewTable(fmt.Sprintf("Pareto frontier (iter time vs comm fraction vs memory): %d points", len(rows)),
		"#", "evo", "H", "SL", "B", "TP", "iter time", "comm (%)", "mem/device")
	for i, r := range rows {
		addRowTo(t, fmt.Sprint(i+1), r)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	renderCanceled(w, front.Canceled())
	return nil
}

func renderMarginals(w io.Writer, marg *stream.Marginals) error {
	t := report.NewTable("Per-axis comm-fraction marginals (mean over all grid rows sharing the value)",
		"axis", "value", "rows", "mean comm (%)", "min (%)", "max (%)", "mean iter time")
	axes := marg.Axes()
	for _, ax := range axes {
		for _, v := range ax.Values {
			t.AddRow(ax.Axis, v.Value, fmt.Sprint(v.Count), report.Pct(v.MeanCommFrac),
				report.Pct(v.MinCommFrac), report.Pct(v.MaxCommFrac), v.MeanIterTime.String())
		}
	}
	if err := t.Render(w); err != nil {
		return err
	}
	for _, ax := range axes {
		fmt.Fprintf(w, "  %s spread of per-value means: %s\n", ax.Axis, report.Pct(ax.Spread()))
	}
	renderCanceled(w, marg.Canceled())
	return nil
}
