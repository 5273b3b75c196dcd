package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"twocs/internal/hw"
	"twocs/internal/model"
	"twocs/internal/parallel"
	"twocs/internal/race"
	"twocs/internal/stream"
	"twocs/internal/telemetry"
	"twocs/internal/units"
)

// This file pins the priced serialized grids: each (H, SL, TP) task is
// projected once per grid call and every (scenario, task) point only
// rescales it. The oracle is the single-point path, SerializedFraction,
// which every grid point matched before pricing was hoisted.

// pricedAxis is one axis set the oracle covers.
type pricedAxis struct {
	name         string
	hs, sls, tps []int
	b            int
}

// pricedAxes are a Table-3 subset and one off-grid set
// (non-power-of-two H and SL, odd TP degrees, B=2).
func pricedAxes() []pricedAxis {
	hs, sls, tps := smallGrid()
	return []pricedAxis{
		{"table3", hs, sls, tps, 1},
		{"offgrid", []int{1536, 3072, 5120}, []int{768, 3000}, []int{2, 3, 6, 8, 12}, 2},
	}
}

// pricedEvos mixes the scenario constructors with one that scales the
// network too, so both Scale divisors are exercised.
func pricedEvos() []hw.Evolution {
	return []hw.Evolution{
		hw.Identity(),
		hw.RatioScenario(1.5),
		hw.FlopVsBWScenario(4),
		{Name: "net 1.7x", FlopScale: 3, NetScale: 1.7, MemBWScale: 3, MemCapScale: 1},
	}
}

// oraclePoint is SerializedFraction's projection of point (h, sl, b, tp)
// under evo.
func oraclePoint(t *testing.T, a *Analyzer, h, sl, b, tp int, evo hw.Evolution) (iter, frac float64) {
	t.Helper()
	cfg, err := FutureConfig(h, sl, b)
	if err != nil {
		t.Fatal(err)
	}
	proj, err := a.SerializedFraction(cfg, tp, evo)
	if err != nil {
		t.Fatalf("oracle H=%d SL=%d TP=%d %s: %v", h, sl, tp, evo.Name, err)
	}
	return float64(proj.Total()), proj.CommFraction()
}

// oracleMem is the per-device memory footprint of shape (h, sl, b, tp).
func oracleMem(t *testing.T, h, sl, b, tp int) units.Bytes {
	t.Helper()
	cfg, err := FutureConfig(h, sl, b)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := model.DefaultMemoryModel().PerDevice(cfg, tp)
	if err != nil {
		t.Fatalf("oracle memory H=%d SL=%d B=%d TP=%d: %v", h, sl, b, tp, err)
	}
	return mem
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestPricedGridsMatchSerializedFraction is the differential oracle:
// every point of the three serialized grids — the one-scenario sweep,
// the evolution grid and the stream, strict and partial — carries
// exactly SerializedFraction's bits for its (cfg, tp, evo). A streamed
// row must also carry its own index, its scenario's flop-vs-bandwidth
// ratio and the memory footprint of its own shape: the stream builds
// rows apart from the workers that project them, so every field is
// checked against its own oracle.
func TestPricedGridsMatchSerializedFraction(t *testing.T) {
	a := newAnalyzer(t)
	evos := pricedEvos()
	for _, ax := range pricedAxes() {
		for _, w := range []int{1, 4} {
			a.Workers = w
			name := fmt.Sprintf("%s/workers=%d", ax.name, w)
			check := func(grid string, p SerializedPoint, evo hw.Evolution) {
				t.Helper()
				if p.B != ax.b {
					t.Fatalf("%s %s: point %+v has B=%d", name, grid, p, p.B)
				}
				_, frac := oraclePoint(t, a, p.H, p.SL, p.B, p.TP, evo)
				if !sameBits(p.Fraction, frac) || !sameBits(p.FlopVsBW, evo.FlopVsBW()) {
					t.Fatalf("%s %s: point %+v under %s, oracle fraction %v", name, grid, p, evo.Name, frac)
				}
			}
			n := 0
			for _, evo := range evos {
				pts, err := a.SerializedSweepCtx(context.Background(), ax.hs, ax.sls, ax.tps, ax.b, evo)
				if err != nil {
					t.Fatalf("%s: SerializedSweepCtx %s: %v", name, evo.Name, err)
				}
				for _, p := range pts {
					check("sweep", p, evo)
				}
				n = len(pts)
			}
			grid, err := a.SerializedEvolutionGridCtx(context.Background(), ax.hs, ax.sls, ax.tps, ax.b, evos)
			if err != nil {
				t.Fatalf("%s: SerializedEvolutionGridCtx: %v", name, err)
			}
			for e, pts := range grid {
				if len(pts) != n {
					t.Fatalf("%s: scenario %d has %d points, want %d", name, e, len(pts), n)
				}
				for _, p := range pts {
					check("evolution grid", p, evos[e])
				}
			}
			for _, partial := range []bool{false, true} {
				var sink collectSink
				run := a.StreamEvolutionGridCtx
				if partial {
					run = a.StreamEvolutionGridPartialCtx
				}
				if err := run(context.Background(), ax.hs, ax.sls, ax.tps, ax.b, evos, &sink); err != nil {
					t.Fatalf("%s: stream (partial=%v): %v", name, partial, err)
				}
				if len(sink.rows) != len(evos)*n || !sink.trailer.Complete {
					t.Fatalf("%s: stream (partial=%v) gave %d rows, trailer %+v", name, partial, len(sink.rows), sink.trailer)
				}
				for i, r := range sink.rows {
					evo := evos[i/n]
					iter, frac := oraclePoint(t, a, r.H, r.SL, r.B, r.TP, evo)
					mem := oracleMem(t, r.H, r.SL, r.B, r.TP)
					if r.Index != int64(i) || r.Evo != evo.Name || !sameBits(r.FlopVsBW, evo.FlopVsBW()) ||
						!sameBits(float64(r.IterTime), iter) || !sameBits(r.CommFrac, frac) || !sameBits(float64(r.MemBytes), float64(mem)) {
						t.Fatalf("%s: stream (partial=%v) row %d = %+v, oracle iter %v frac %v mem %v under %s",
							name, partial, i, r, iter, frac, mem, evo.Name)
					}
				}
			}
		}
	}
}

// badScenarioAt returns n valid scenarios with an invalid one
// (NetScale 0) at position k.
func badScenarioAt(n, k int) []hw.Evolution {
	evos := manyEvos(n)
	evos[k] = hw.Evolution{Name: "dead network", FlopScale: 2, NetScale: 0, MemBWScale: 2, MemCapScale: 1}
	return evos
}

// TestPricedGridsScenarioErrorAtFirstRow pins the error contract: an
// invalid scenario at position k fails at its first row, after the
// strict stream emitted exactly the rows [0, k·T) of the valid
// scenarios before it, with SerializedFraction's error text; the
// partial stream back-fills the rest and counts it; both materialized
// grids report the same error.
func TestPricedGridsScenarioErrorAtFirstRow(t *testing.T) {
	a := newAnalyzer(t)
	hs, sls, tps := smallGrid()
	const n, k = 6, 3
	evos := badScenarioAt(n, k)
	cfg, err := FutureConfig(hs[0], sls[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	_, want := a.SerializedFraction(cfg, tps[0], evos[k])
	if want == nil {
		t.Fatal("oracle accepted a NetScale 0 scenario")
	}
	tasks, err := enumerateSerialized(hs, sls, tps, 1)
	if err != nil {
		t.Fatal(err)
	}
	T := len(tasks)
	total := int64(n * T)

	for _, w := range []int{1, 4} {
		a.Workers = w
		var strict collectSink
		err := a.StreamEvolutionGridCtx(context.Background(), hs, sls, tps, 1, evos, &strict)
		if err == nil || err.Error() != want.Error() {
			t.Fatalf("workers=%d: strict stream err %v, want %v", w, err, want)
		}
		if len(strict.rows) != k*T {
			t.Fatalf("workers=%d: strict stream emitted %d rows, want the %d before scenario %d", w, len(strict.rows), k*T, k)
		}
		for i, r := range strict.rows {
			if r.Index != int64(i) || !r.Finite() {
				t.Fatalf("workers=%d: strict row %d = %+v", w, i, r)
			}
		}
		if tr := strict.trailer; tr.Rows != int64(k*T) || tr.Total != total || tr.Complete || tr.Reason != want.Error() {
			t.Fatalf("workers=%d: strict trailer %+v", w, tr)
		}

		var partial collectSink
		err = a.StreamEvolutionGridPartialCtx(context.Background(), hs, sls, tps, 1, evos, &partial)
		if err == nil || err.Error() != want.Error() {
			t.Fatalf("workers=%d: partial stream err %v, want %v", w, err, want)
		}
		if int64(len(partial.rows)) != total {
			t.Fatalf("workers=%d: partial stream emitted %d rows, want %d", w, len(partial.rows), total)
		}
		for i, r := range partial.rows {
			if r.Index != int64(i) || r.Finite() != (i < k*T) {
				t.Fatalf("workers=%d: partial row %d = %+v (finite rows are [0, %d))", w, i, r, k*T)
			}
		}
		if tr := partial.trailer; tr.Rows != total || tr.Canceled != total-int64(k*T) || tr.Complete || tr.Reason != want.Error() {
			t.Fatalf("workers=%d: partial trailer %+v", w, tr)
		}

		grid, err := a.SerializedEvolutionGridCtx(context.Background(), hs, sls, tps, 1, evos)
		if grid != nil || err == nil || err.Error() != want.Error() {
			t.Fatalf("workers=%d: evolution grid = %d scenarios, err %v, want %v", w, len(grid), err, want)
		}
		pts, err := a.SerializedSweepCtx(context.Background(), hs, sls, tps, 1, evos[k])
		var pe *parallel.PartialError
		if !errors.As(err, &pe) || pe.Done != 0 || pe.Cause.Error() != want.Error() || len(pts) != T {
			t.Fatalf("workers=%d: sweep under the bad scenario: %d points, err %v, want Done 0 and %v", w, len(pts), err, want)
		}
	}
}

// TestPricedGridsCanceledBeforeFirstClaim: a context canceled before
// the grid starts leaves no row computed — the strict stream's trailer
// says so, the partial stream back-fills every row, and the sweep's
// PartialError has Done 0.
func TestPricedGridsCanceledBeforeFirstClaim(t *testing.T) {
	a := newAnalyzer(t)
	hs, sls, tps := smallGrid()
	evos := hw.PaperScenarios()
	total, err := GridRowCount(hs, sls, tps, 1, len(evos))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, w := range []int{1, 4} {
		a.Workers = w
		var strict collectSink
		if err := a.StreamEvolutionGridCtx(ctx, hs, sls, tps, 1, evos, &strict); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: strict stream err %v", w, err)
		}
		want := stream.Trailer{Total: total, Reason: "canceled"}
		if len(strict.rows) != 0 || strict.trailer != want {
			t.Fatalf("workers=%d: strict stream %d rows, trailer %+v, want %+v", w, len(strict.rows), strict.trailer, want)
		}
		var partial collectSink
		if err := a.StreamEvolutionGridPartialCtx(ctx, hs, sls, tps, 1, evos, &partial); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: partial stream err %v", w, err)
		}
		want = stream.Trailer{Rows: total, Total: total, Canceled: total, Reason: "canceled"}
		if int64(len(partial.rows)) != total || partial.trailer != want {
			t.Fatalf("workers=%d: partial stream %d rows, trailer %+v, want %+v", w, len(partial.rows), partial.trailer, want)
		}
		_, err := a.SerializedSweepCtx(ctx, hs, sls, tps, 1, hw.Identity())
		var pe *parallel.PartialError
		if !errors.As(err, &pe) || pe.Done != 0 || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: sweep err %v, want a canceled PartialError with Done 0", w, err)
		}
	}
}

// TestPriceTasksKeepsErrorsPerTask: a task that cannot be priced
// carries SerializedFraction's error to the points that use it, while
// its neighbours price normally; a pricing stopped by its context
// marks every unpriced task with the context's error and prices none.
func TestPriceTasksKeepsErrorsPerTask(t *testing.T) {
	a := newAnalyzer(t)
	hs, sls, tps := smallGrid()
	tasks, err := enumerateSerialized(hs, sls, tps, 1)
	if err != nil {
		t.Fatal(err)
	}
	const bad = 2
	tasks[bad].tp = 7 // divides neither heads nor FC
	_, want := a.SerializedFraction(tasks[bad].cfg, 7, hw.Identity())
	if want == nil {
		t.Fatal("oracle accepted TP=7")
	}
	evo := hw.Identity()
	for _, w := range []int{1, 4} {
		a.Workers = w
		priced := a.priceTasks(context.Background(), tasks)
		if len(priced) != len(tasks) {
			t.Fatalf("workers=%d: priced %d of %d tasks", w, len(priced), len(tasks))
		}
		for i := range priced {
			_, frac, err := priced[i].project(&evo, nil)
			if i == bad {
				if err == nil || err.Error() != want.Error() {
					t.Fatalf("workers=%d: bad task err %v, want %v", w, err, want)
				}
				continue
			}
			_, oracle := oraclePoint(t, a, tasks[i].h, tasks[i].sl, 1, tasks[i].tp, evo)
			if err != nil || !sameBits(frac, oracle) {
				t.Fatalf("workers=%d: task %d = %v, %v; oracle %v", w, i, frac, err, oracle)
			}
		}

		col := telemetry.NewCollector()
		telemetry.Enable(col)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		priced = a.priceTasks(ctx, tasks)
		telemetry.Enable(nil)
		for i := range priced {
			if !errors.Is(priced[i].err, context.Canceled) {
				t.Fatalf("workers=%d: canceled pricing left task %d with err %v", w, i, priced[i].err)
			}
		}
		if n := projLookups(col); n != 0 {
			t.Fatalf("workers=%d: canceled pricing made %d projection lookups", w, n)
		}
	}
}

// projLookups is the number of memoized layer projections looked up
// under col.
func projLookups(col *telemetry.Collector) int64 {
	snap := col.Snapshot()
	hit, _ := snap.Counter("opmodel.projcache.hit")
	miss, _ := snap.Counter("opmodel.projcache.miss")
	return hit + miss
}

// TestPricedGridsLookUpEachTaskOnce: a grid of E scenarios × T tasks
// consults the projection memo T times, not E×T — once per task per
// grid call, at any worker count.
func TestPricedGridsLookUpEachTaskOnce(t *testing.T) {
	a := newAnalyzer(t)
	hs, sls, tps := smallGrid()
	evos := manyEvos(50)
	tasks, err := enumerateSerialized(hs, sls, tps, 1)
	if err != nil {
		t.Fatal(err)
	}
	T := int64(len(tasks))
	grids := map[string]func() error{
		"stream": func() error {
			var d stream.Discard
			return a.StreamEvolutionGridCtx(context.Background(), hs, sls, tps, 1, evos, &d)
		},
		"evolution grid": func() error {
			_, err := a.SerializedEvolutionGridCtx(context.Background(), hs, sls, tps, 1, evos)
			return err
		},
		"sweep": func() error {
			_, err := a.SerializedSweepCtx(context.Background(), hs, sls, tps, 1, evos[0])
			return err
		},
	}
	for name, run := range grids {
		for _, w := range []int{1, 4} {
			a.Workers = w
			col := telemetry.NewCollector()
			telemetry.Enable(col)
			err := run()
			telemetry.Enable(nil)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, w, err)
			}
			if n := projLookups(col); n != T {
				t.Fatalf("%s workers=%d: %d projection lookups, want one per task (%d)", name, w, n, T)
			}
		}
	}
}

// TestStreamAllocsFlatInScenarios pins the priced stream's allocation
// profile: everything it allocates is per-stream setup (tasks, prices,
// one scenario-error slice, the pricing pool at more than one worker),
// nothing per row, so a 100× longer scenario list allocates exactly as
// often. The count at one worker is pinned exactly; the row loop
// allocates nothing, so a rise there is setup that grew.
func TestStreamAllocsFlatInScenarios(t *testing.T) {
	telemetry.Enable(nil)
	telemetry.EnableProgress(nil)
	a := newAnalyzer(t)
	hs, sls, tps := smallGrid()
	allocs := func(nEvos int) float64 {
		evos := manyEvos(nEvos)
		var sink stream.Discard
		return testing.AllocsPerRun(5, func() {
			sink.Rows = 0
			if err := a.StreamEvolutionGridCtx(context.Background(), hs, sls, tps, 1, evos, &sink); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, tc := range []struct {
		workers int
		want    float64 // exact count, 0 for flatness only
	}{
		{1, 13},
		{4, 0},
	} {
		a.Workers = tc.workers
		few, many := allocs(10), allocs(1000)
		if few != many {
			t.Fatalf("workers=%d: stream allocs/run: %v at 10 scenarios, %v at 1000; want equal (setup only)",
				tc.workers, few, many)
		}
		if tc.want > 0 && few != tc.want && !race.Enabled() {
			t.Fatalf("workers=%d: stream allocs/run = %v, want %v", tc.workers, few, tc.want)
		}
		t.Logf("workers=%d: stream allocs/run: %v at 10 and 1000 scenarios", tc.workers, few)
	}
}
