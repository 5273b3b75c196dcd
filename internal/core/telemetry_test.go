package core

import (
	"bytes"
	"context"
	"reflect"
	"testing"
	"time"

	"twocs/internal/hw"
	"twocs/internal/parallel"
	"twocs/internal/telemetry"
)

// sweepHs/sweepSLs are a trimmed grid so the telemetry equivalence test
// stays fast under -race while still fanning out over several workers.
func telemetryTestGrid() (hs, slbs []int) {
	return []int{1024, 2048, 4096, 8192}, []int{1024, 2048, 4096}
}

// collectSweepTelemetry runs one OverlappedSweepCtx under a fresh
// collector and returns the rendered deterministic snapshot.
func collectSweepTelemetry(t *testing.T, a *Analyzer, workers int) string {
	t.Helper()
	hs, slbs := telemetryTestGrid()
	col := telemetry.NewCollector()
	telemetry.Enable(col)
	defer telemetry.Enable(nil)
	a.Workers = workers
	if _, err := a.OverlappedSweepCtx(context.Background(), hs, slbs, 16, hw.Identity()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := col.Snapshot().Deterministic().WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestTelemetrySnapshotWorkerCountInvariant is the ISSUE's concurrency
// gate: a real OverlappedSweepCtx at -workers 4 with telemetry enabled
// must produce a deterministic metrics snapshot byte-identical to the
// sequential run's — cache hit counts, ledger charges and
// simulated-duration histograms may not depend on scheduling. Run
// under -race (CI does), this also exercises the collector from four
// sweep goroutines at once.
func TestTelemetrySnapshotWorkerCountInvariant(t *testing.T) {
	a := newAnalyzer(t)
	// Warm the analyzer's substrate memo and the process-global op-graph
	// cache without telemetry, so both measured runs see identical cache
	// state (the op-graph cache is shared across tests in this binary).
	hs, slbs := telemetryTestGrid()
	if _, err := a.OverlappedSweepCtx(context.Background(), hs, slbs, 16, hw.Identity()); err != nil {
		t.Fatal(err)
	}

	seq := collectSweepTelemetry(t, a, 1)
	par := collectSweepTelemetry(t, a, 4)
	if seq != par {
		t.Fatalf("deterministic telemetry differs between -workers 1 and -workers 4:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", seq, par)
	}
	for _, want := range []string{
		"core.substrate.hit", "model.opscache.hit",
		"profile.ledger.charge", "dist.op.dp-allreduce.sim_ns",
		"parallel.stream.calls",
	} {
		if !bytes.Contains([]byte(seq), []byte(want)) {
			t.Errorf("deterministic snapshot missing %q:\n%s", want, seq)
		}
	}
}

// TestTelemetryDisabledSweepIsUninstrumented double-checks the no-op
// default at the study level: with no collector enabled, a sweep must
// record nothing anywhere (guarding against an accidentally retained
// global collector).
func TestTelemetryDisabledSweepIsUninstrumented(t *testing.T) {
	telemetry.Enable(nil)
	a := newAnalyzer(t)
	hs, slbs := telemetryTestGrid()
	if _, err := a.OverlappedSweepCtx(context.Background(), hs, slbs, 16, hw.Identity()); err != nil {
		t.Fatal(err)
	}
	if tel := telemetry.Active(); tel != nil {
		t.Fatal("no collector was enabled, but Active() is non-nil")
	}
}

// TestCollectLeavesProgressAlone: the process-wide progress tracker
// follows the one streamed sweep a process serves (twocsd always
// installs one), so neither parallel.Collect nor a materialized study
// on it may move the tracker. It is armed with rows, busy time and a
// frozen clock, so any touch changes its snapshot.
func TestCollectLeavesProgressAlone(t *testing.T) {
	p := telemetry.NewProgress()
	telemetry.EnableProgress(p)
	defer telemetry.EnableProgress(nil)
	p.Begin("sweep-stream", 10)
	p.AddRows(3)
	p.WorkerBusy(0, time.Millisecond)
	p.Finish(false, "armed")
	before := p.Snapshot()

	a := newAnalyzer(t)
	hs, sls, tps := smallGrid()
	for _, w := range []int{1, 4} {
		a.Workers = w
		if _, err := parallel.Collect(context.Background(), w, 200,
			func(_ context.Context, i int) (int, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
		if _, err := a.SerializedEvolutionGridCtx(context.Background(), hs, sls, tps, 1, hw.PaperScenarios()); err != nil {
			t.Fatal(err)
		}
	}
	if after := p.Snapshot(); !reflect.DeepEqual(after, before) {
		t.Fatalf("a materialized run moved the progress tracker:\nbefore %+v\nafter  %+v", before, after)
	}
}
