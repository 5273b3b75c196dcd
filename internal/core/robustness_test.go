package core

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"twocs/internal/collective"
	"twocs/internal/hw"
	"twocs/internal/parallel"
)

// This file covers the hardening surface of the studies: cancellation,
// partial-grid rendering, and the degradation study.

func TestSerializedSweepCtxCanceledKeepsCoordinates(t *testing.T) {
	a := newAnalyzer(t)
	hs, sls, tps := smallGrid()
	for _, w := range []int{1, 4} {
		a.Workers = w
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // canceled before any grid point runs
		out, err := a.SerializedSweepCtx(ctx, hs, sls, tps, 1, hw.Identity())
		var pe *parallel.PartialError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *parallel.PartialError", w, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: PartialError does not unwrap to Canceled: %v", w, err)
		}
		if pe.Done != 0 || len(out) == 0 {
			t.Fatalf("workers=%d: Done=%d with %d points", w, pe.Done, len(out))
		}
		// Incomplete points must still name their grid coordinates so a
		// renderer can print "(canceled)" cells for them.
		for i, p := range out {
			if p.H == 0 || p.SL == 0 || p.TP == 0 {
				t.Fatalf("workers=%d: incomplete point %d lost coordinates: %+v", w, i, p)
			}
			if !math.IsNaN(p.Fraction) {
				t.Fatalf("workers=%d: incomplete point %d has fraction %v, want NaN", w, i, p.Fraction)
			}
		}
	}
}

func TestOverlappedSweepCtxCanceledKeepsCoordinates(t *testing.T) {
	a := newAnalyzer(t)
	hs, sls, _ := smallGrid()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := a.OverlappedSweepCtx(ctx, hs, sls, 16, hw.Identity())
	var pe *parallel.PartialError
	if !errors.As(err, &pe) || pe.Done != 0 {
		t.Fatalf("err = %v, want *parallel.PartialError with nothing done", err)
	}
	for i, p := range out {
		if p.H == 0 || !math.IsNaN(p.Percent) {
			t.Fatalf("incomplete point %d: %+v", i, p)
		}
	}
}

// cancelAfter is a context whose Err turns to context.Canceled after
// its first n calls. The sweep engine consults Err before every claim
// (before every task on one worker), so the cancel lands mid-grid.
type cancelAfter struct {
	context.Context
	left atomic.Int64
}

func newCancelAfter(n int64) *cancelAfter {
	c := &cancelAfter{Context: context.Background()}
	c.left.Store(n)
	return c
}

func (c *cancelAfter) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestSweepCtxMidRunCancelPrefix pins the best-effort grids' contract
// for a cancel that lands mid-run: exactly the points [0, Done) hold
// the values of a complete run, and every later point is NaN with its
// coordinates.
func TestSweepCtxMidRunCancelPrefix(t *testing.T) {
	a := newAnalyzer(t)
	hs, sls, tps := smallGrid()
	serialized := func(ctx context.Context) ([]float64, []int, error) {
		pts, err := a.SerializedSweepCtx(ctx, hs, sls, tps, 1, hw.Identity())
		vals, coords := make([]float64, len(pts)), make([]int, len(pts))
		for i, p := range pts {
			vals[i], coords[i] = p.Fraction, p.H*p.SL*p.TP
		}
		return vals, coords, err
	}
	overlapped := func(ctx context.Context) ([]float64, []int, error) {
		pts, err := a.OverlappedSweepCtx(ctx, hs, sls, 16, hw.Identity())
		vals, coords := make([]float64, len(pts)), make([]int, len(pts))
		for i, p := range pts {
			vals[i], coords[i] = p.Percent, p.H*p.SLB
		}
		return vals, coords, err
	}
	for name, sweep := range map[string]func(context.Context) ([]float64, []int, error){
		"serialized": serialized, "overlapped": overlapped,
	} {
		full, fullCoords, err := sweep(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 4} {
			a.Workers = w
			got, coords, err := sweep(newCancelAfter(3))
			var pe *parallel.PartialError
			if !errors.As(err, &pe) || !errors.Is(err, context.Canceled) {
				t.Fatalf("%s workers=%d: err = %v, want a canceled *parallel.PartialError", name, w, err)
			}
			if pe.Done <= 0 || pe.Done >= len(full) || len(got) != len(full) {
				t.Fatalf("%s workers=%d: Done=%d of %d points (%d returned), want a mid-grid prefix",
					name, w, pe.Done, len(full), len(got))
			}
			if w == 1 && pe.Done != 3 {
				t.Fatalf("%s workers=1: Done=%d, want the 3 points before the cancel", name, pe.Done)
			}
			for i := range got {
				if coords[i] != fullCoords[i] {
					t.Fatalf("%s workers=%d: point %d lost its coordinates", name, w, i)
				}
				if i < pe.Done && got[i] != full[i] {
					t.Fatalf("%s workers=%d: done point %d = %v, want %v", name, w, i, got[i], full[i])
				}
				if i >= pe.Done && !math.IsNaN(got[i]) {
					t.Fatalf("%s workers=%d: point %d past Done = %v, want NaN", name, w, i, got[i])
				}
			}
		}
		a.Workers = 1
	}
}

// TestSweepCtxCompleteRunMatchesPlain: a best-effort sweep that runs to
// completion returns no error and the strict grid's points.
func TestSweepCtxCompleteRunMatchesPlain(t *testing.T) {
	a := newAnalyzer(t)
	hs, sls, tps := smallGrid()
	strict, err := a.SerializedEvolutionGridCtx(context.Background(), hs, sls, tps, 1, []hw.Evolution{hw.Identity()})
	if err != nil {
		t.Fatal(err)
	}
	plain := strict[0]
	viaCtx, err := a.SerializedSweepCtx(context.Background(), hs, sls, tps, 1, hw.Identity())
	if err != nil {
		t.Fatalf("uncanceled ctx sweep errored: %v", err)
	}
	if len(plain) != len(viaCtx) {
		t.Fatalf("lengths diverge: %d vs %d", len(plain), len(viaCtx))
	}
	for i := range plain {
		if plain[i] != viaCtx[i] {
			t.Fatalf("point %d diverges: %+v vs %+v", i, plain[i], viaCtx[i])
		}
	}
}

func TestStrictStudiesHonorCancellation(t *testing.T) {
	a := newAnalyzer(t)
	hs, sls, tps := smallGrid()
	cfg, err := FutureConfig(4096, 2048, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	studies := map[string]func() error{
		"SerializedEvolutionGridCtx": func() error {
			_, err := a.SerializedEvolutionGridCtx(ctx, hs, sls, tps, 1, hw.PaperScenarios())
			return err
		},
		"ExhaustiveCostStudyCtx": func() error {
			_, err := a.ExhaustiveCostStudyCtx(ctx, hs, sls, tps, 1, nil)
			return err
		},
		"ScalingStudyCtx": func() error {
			_, err := a.ScalingStudyCtx(ctx, cfg, 64, []int{2, 4, 8}, hw.Identity())
			return err
		},
		"CaseStudyCtx": func() error {
			_, err := a.CaseStudyCtx(ctx, cfg, 16, 4, hw.Identity(), PaperScenariosFig14())
			return err
		},
		"DegradationStudy": func() error {
			_, err := a.DegradationStudy(ctx, cfg, 16, hw.Identity(), DefaultFaultScenarios())
			return err
		},
	}
	for name, run := range studies {
		if err := run(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
	}
}

func TestDegradationStudy(t *testing.T) {
	a := newAnalyzer(t)
	cfg, err := FutureConfig(8192, 2048, 1)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := a.DegradationStudy(context.Background(), cfg, 16, hw.Identity(), DefaultFaultScenarios())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(DefaultFaultScenarios()) {
		t.Fatalf("got %d rows, want %d", len(rows), len(DefaultFaultScenarios()))
	}
	healthy := rows[0]
	if healthy.Fault.Name != "healthy" {
		t.Fatalf("first scenario is %q, want healthy", healthy.Fault.Name)
	}
	if healthy.DeltaPP != 0 {
		t.Fatalf("healthy DeltaPP = %v, want 0", healthy.DeltaPP)
	}
	byName := map[string]DegradationRow{}
	for _, r := range rows {
		byName[r.Fault.Name] = r
		// Network faults must not touch the compute side of the split.
		if r.Compute != healthy.Compute {
			t.Errorf("%s: compute shifted under a network fault: %v != %v",
				r.Fault.Name, r.Compute, healthy.Compute)
		}
		if r.Fault.Name == "healthy" {
			continue
		}
		if r.CommFraction <= healthy.CommFraction {
			t.Errorf("%s: comm fraction %v not above healthy %v",
				r.Fault.Name, r.CommFraction, healthy.CommFraction)
		}
		if r.DeltaPP <= 0 {
			t.Errorf("%s: DeltaPP = %v, want > 0", r.Fault.Name, r.DeltaPP)
		}
	}
	// Worse link degradation must mean a larger comm share.
	if byName["link at 25%"].CommFraction <= byName["link at 50%"].CommFraction {
		t.Errorf("link 25%% fraction %v not above link 50%% %v",
			byName["link at 25%"].CommFraction, byName["link at 50%"].CommFraction)
	}
}

func TestDegradationStudyRejectsInvalidFaults(t *testing.T) {
	a := newAnalyzer(t)
	cfg, err := FutureConfig(4096, 2048, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.DegradationStudy(context.Background(), cfg, 16, hw.Identity(), nil); err == nil {
		t.Error("empty scenario list accepted")
	}
	bad := []collective.Fault{{Name: "nonsense"}}
	if _, err := a.DegradationStudy(context.Background(), cfg, 16, hw.Identity(), bad); err == nil {
		t.Error("invalid fault accepted")
	}
}

func TestDegradationStudyParallelEquivalence(t *testing.T) {
	a := newAnalyzer(t)
	cfg, err := FutureConfig(4096, 2048, 1)
	if err != nil {
		t.Fatal(err)
	}
	atWorkers(t, a, 4, "DegradationStudy", func() ([]DegradationRow, error) {
		return a.DegradationStudy(context.Background(), cfg, 16, hw.Identity(), DefaultFaultScenarios())
	})
}
