package core

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"twocs/internal/hw"
	"twocs/internal/model"
)

// This file asserts the tentpole invariant of the sweep engine: every
// rewired grid study returns results identical to the sequential loop at
// any worker count. The analyzer's memoized substrates are shared across
// runs, so matching outputs also demonstrate the caches are pure.

// atWorkers runs fn twice on the same analyzer — sequentially and with
// the given worker count — and fails unless the results are deeply equal.
func atWorkers[T any](t *testing.T, a *Analyzer, workers int, name string, fn func() (T, error)) {
	t.Helper()
	a.Workers = 1
	seq, err := fn()
	if err != nil {
		t.Fatalf("%s sequential: %v", name, err)
	}
	a.Workers = workers
	par, err := fn()
	if err != nil {
		t.Fatalf("%s workers=%d: %v", name, workers, err)
	}
	a.Workers = 1
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("%s: workers=%d diverges from sequential\nseq: %+v\npar: %+v",
			name, workers, seq, par)
	}
}

// smallGrid keeps the equivalence suite fast: 2 H × 2 SL × 3 TP.
func smallGrid() (hs, sls, tps []int) {
	return []int{1024, 4096}, []int{1024, 2048}, []int{4, 16, 64}
}

func TestSerializedSweepParallelEquivalence(t *testing.T) {
	a := newAnalyzer(t)
	hs, sls, tps := smallGrid()
	for _, w := range []int{2, 4, 8} {
		atWorkers(t, a, w, "SerializedSweep", func() ([]SerializedPoint, error) {
			return a.SerializedSweepCtx(context.Background(), hs, sls, tps, 1, hw.FlopVsBWScenario(2))
		})
	}
}

func TestOverlappedSweepParallelEquivalence(t *testing.T) {
	a := newAnalyzer(t)
	hs, sls, _ := smallGrid()
	for _, w := range []int{2, 4} {
		atWorkers(t, a, w, "OverlappedSweep", func() ([]OverlappedPoint, error) {
			return a.OverlappedSweepCtx(context.Background(), hs, sls, 16, hw.Identity())
		})
	}
}

func TestSerializedEvolutionGridParallelEquivalence(t *testing.T) {
	a := newAnalyzer(t)
	hs, sls, tps := smallGrid()
	atWorkers(t, a, 4, "SerializedEvolutionGrid", func() ([][]SerializedPoint, error) {
		return a.SerializedEvolutionGridCtx(context.Background(), hs, sls, tps, 1, hw.PaperScenarios())
	})
}

func TestZooTimelineParallelEquivalence(t *testing.T) {
	a := newAnalyzer(t)
	atWorkers(t, a, 4, "ZooTimeline", func() ([]ZooTimelineRow, error) {
		return a.ZooTimelineCtx(context.Background(), model.Zoo())
	})
}

func TestScalingStudyParallelEquivalence(t *testing.T) {
	a := newAnalyzer(t)
	cfg, err := FutureConfig(4096, 2048, 1)
	if err != nil {
		t.Fatal(err)
	}
	atWorkers(t, a, 4, "ScalingStudy", func() ([]ScalingRow, error) {
		return a.ScalingStudyCtx(context.Background(), cfg, 64, []int{2, 4, 8, 16, 32}, hw.Identity())
	})
}

func TestCaseStudyParallelEquivalence(t *testing.T) {
	a := newAnalyzer(t)
	cfg, err := FutureConfig(8192, 2048, 1)
	if err != nil {
		t.Fatal(err)
	}
	atWorkers(t, a, 3, "CaseStudy", func() ([]CaseResult, error) {
		return a.CaseStudyCtx(context.Background(), cfg, 16, 4, hw.FlopVsBWScenario(4), PaperScenariosFig14())
	})
}

func TestExhaustiveCostStudyParallelEquivalence(t *testing.T) {
	a := newAnalyzer(t)
	hs, sls, tps := smallGrid()
	layersFor := func(h int) int {
		if h >= 4096 {
			return 4
		}
		return 2
	}
	a.Workers = 1
	seq, err := a.ExhaustiveCostStudyCtx(context.Background(), hs, sls, tps, 1, layersFor)
	if err != nil {
		t.Fatal(err)
	}
	a.Workers = 4
	par, err := a.ExhaustiveCostStudyCtx(context.Background(), hs, sls, tps, 1, layersFor)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Total() != par.Total() {
		t.Fatalf("ledger totals diverge: %v vs %v", seq.Total(), par.Total())
	}
	// Every line item must be identical: the study fills its ledger
	// sequentially after the parallel pricing.
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("ledger items diverge")
	}
}

// TestQuickSweepEquivalence is the satellite property test: for random
// worker counts, the full Table 3 serialized sweep matches the
// sequential run exactly.
func TestQuickSweepEquivalence(t *testing.T) {
	a := newAnalyzer(t)
	hs, sls, tps := smallGrid()
	a.Workers = 1
	seq, err := a.SerializedSweepCtx(context.Background(), hs, sls, tps, 1, hw.Identity())
	if err != nil {
		t.Fatal(err)
	}
	prop := func(wRaw uint8) bool {
		a.Workers = int(wRaw%12) + 1
		par, err := a.SerializedSweepCtx(context.Background(), hs, sls, tps, 1, hw.Identity())
		if err != nil {
			return false
		}
		return reflect.DeepEqual(seq, par)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSweepErrorPaths(t *testing.T) {
	a := newAnalyzer(t)
	for _, w := range []int{1, 4} {
		a.Workers = w
		// Empty grid: no H values at all.
		if _, err := a.SerializedSweepCtx(context.Background(), nil, []int{1024}, []int{4}, 1, hw.Identity()); !errors.Is(err, ErrNoRunnablePoints) {
			t.Fatalf("workers=%d: empty serialized grid: err %v, want ErrNoRunnablePoints", w, err)
		}
		// All points skipped: no TP degree divides a 16-head config.
		if _, err := a.SerializedSweepCtx(context.Background(), []int{1024}, []int{1024}, []int{7, 11}, 1, hw.Identity()); !errors.Is(err, ErrNoRunnablePoints) {
			t.Fatalf("workers=%d: all-skipped serialized grid: err %v, want ErrNoRunnablePoints", w, err)
		}
		if _, err := a.SerializedEvolutionGridCtx(context.Background(), []int{1024}, []int{1024}, []int{7}, 1, []hw.Evolution{hw.Identity()}); !errors.Is(err, ErrNoRunnablePoints) {
			t.Fatalf("workers=%d: all-skipped evolution grid: err %v, want ErrNoRunnablePoints", w, err)
		}
		if _, err := a.OverlappedSweepCtx(context.Background(), nil, nil, 16, hw.Identity()); !errors.Is(err, ErrNoRunnablePoints) {
			t.Fatalf("workers=%d: empty overlapped grid should error", w)
		}
		if _, err := a.OverlappedSweepCtx(context.Background(), []int{1024}, []int{1024}, 7, hw.Identity()); !errors.Is(err, ErrNoRunnablePoints) {
			t.Fatalf("workers=%d: all-skipped overlapped grid should error", w)
		}
		if _, err := a.SerializedEvolutionGridCtx(context.Background(), []int{1024}, []int{1024}, []int{4}, 1, nil); err == nil {
			t.Fatalf("workers=%d: no scenarios should error", w)
		}
		if _, err := a.ExhaustiveCostStudyCtx(context.Background(), nil, nil, nil, 1, nil); !errors.Is(err, ErrNoRunnablePoints) {
			t.Fatalf("workers=%d: empty exhaustive grid: err %v, want ErrNoRunnablePoints", w, err)
		}
		// Invalid evolution must surface the same error at any worker count.
		bad := hw.Evolution{}
		if _, err := a.SerializedSweepCtx(context.Background(), []int{1024}, []int{1024}, []int{4}, 1, bad); err == nil {
			t.Fatalf("workers=%d: invalid evolution should error", w)
		}
	}
}

// TestStrategyLedgerUnderParallelSweep: the ROI costs charged by an
// overlapped sweep must total the same whether charged sequentially or
// from many goroutines.
func TestStrategyLedgerUnderParallelSweep(t *testing.T) {
	hs, sls, _ := smallGrid()
	seqA := newAnalyzer(t)
	seqA.Workers = 1
	if _, err := seqA.OverlappedSweepCtx(context.Background(), hs, sls, 16, hw.Identity()); err != nil {
		t.Fatal(err)
	}
	parA := newAnalyzer(t)
	parA.Workers = 8
	if _, err := parA.OverlappedSweepCtx(context.Background(), hs, sls, 16, hw.Identity()); err != nil {
		t.Fatal(err)
	}
	if seqA.StrategyLedger.Total() != parA.StrategyLedger.Total() {
		t.Fatalf("ledger totals diverge: %v vs %v",
			seqA.StrategyLedger.Total(), parA.StrategyLedger.Total())
	}
}
