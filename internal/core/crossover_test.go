package core

import (
	"context"
	"math"
	"testing"

	"twocs/internal/hw"
)

// syntheticPoints builds a grid-ordered point list (H-major, then SL,
// then TP ascending) from per-group fraction ramps.
func syntheticPoints(t *testing.T, groups []struct {
	h, sl int
	fracs []float64
}) []SerializedPoint {
	t.Helper()
	tps := []int{4, 8, 16, 32}
	var out []SerializedPoint
	for _, g := range groups {
		if len(g.fracs) > len(tps) {
			t.Fatal("too many fractions for the TP axis")
		}
		for i, f := range g.fracs {
			out = append(out, SerializedPoint{
				H: g.h, SL: g.sl, B: 1, TP: tps[i], FlopVsBW: 2, Fraction: f,
			})
		}
	}
	return out
}

func TestCrossoverTable(t *testing.T) {
	points := syntheticPoints(t, []struct {
		h, sl int
		fracs []float64
	}{
		{1024, 1024, []float64{0.2, 0.45, 0.6, 0.8}}, // crosses 0.5 at TP=16
		{1024, 2048, []float64{0.55, 0.7}},           // crosses at the first TP
		{2048, 1024, []float64{0.1, 0.2, 0.3, 0.4}},  // never crosses
	})
	rows, err := CrossoverTable(points, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	want := []Crossover{
		{H: 1024, SL: 1024, B: 1, FlopVsBW: 2, Crossed: true, TP: 16, Fraction: 0.6},
		{H: 1024, SL: 2048, B: 1, FlopVsBW: 2, Crossed: true, TP: 4, Fraction: 0.55},
		{H: 2048, SL: 1024, B: 1, FlopVsBW: 2, Crossed: false, TP: 32, Fraction: 0.4},
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Errorf("row %d:\n got  %+v\n want %+v", i, rows[i], want[i])
		}
	}
}

// TestCrossoverTableFreezesAtFirstCrossing: once a group crosses, later
// (larger) TP points must not move the row — the table answers
// "smallest degree that reaches the target".
func TestCrossoverTableFreezesAtFirstCrossing(t *testing.T) {
	points := syntheticPoints(t, []struct {
		h, sl int
		fracs []float64
	}{
		{4096, 1024, []float64{0.3, 0.6, 0.9, 0.95}},
	})
	rows, err := CrossoverTable(points, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].TP != 8 || math.Abs(rows[0].Fraction-0.6) > 0 {
		t.Fatalf("crossing not frozen at the smallest degree: %+v", rows)
	}
}

// TestCrossoverTableSkipsCanceled: NaN (back-filled) cells are invisible
// — the table reduces only the points that actually ran.
func TestCrossoverTableSkipsCanceled(t *testing.T) {
	nan := math.NaN()
	points := syntheticPoints(t, []struct {
		h, sl int
		fracs []float64
	}{
		{1024, 1024, []float64{0.3, nan, 0.7}}, // cancel hides TP=8
		{2048, 1024, []float64{nan, nan}},      // whole group canceled
	})
	rows, err := CrossoverTable(points, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1 (all-canceled group must vanish)", len(rows))
	}
	if !rows[0].Crossed || rows[0].TP != 16 {
		t.Fatalf("crossing should land on the first surviving point past target: %+v", rows[0])
	}
}

func TestCrossoverTableRejectsBadTarget(t *testing.T) {
	for _, target := range []float64{0, 1, -0.5, 2} {
		if _, err := CrossoverTable(nil, target); err == nil {
			t.Errorf("target %v accepted", target)
		}
	}
}

// TestCrossoverTableOnRealGrid ties the table to the analyzer: on a
// real sweep serialized fractions rise with TP, so every crossed row's
// fraction meets the target and every uncrossed row's final fraction
// does not.
func TestCrossoverTableOnRealGrid(t *testing.T) {
	a := newAnalyzer(t)
	hs, sls, tps := []int{1024, 4096}, []int{1024, 2048}, []int{4, 8, 16}
	pts, err := a.SerializedSweepCtx(context.Background(), hs, sls, tps, 1, hw.FlopVsBWScenario(1))
	if err != nil {
		t.Fatal(err)
	}
	const target = 0.5
	rows, err := CrossoverTable(pts, target)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(hs)*len(sls) {
		t.Fatalf("got %d rows, want one per (H, SL) = %d", len(rows), len(hs)*len(sls))
	}
	for _, r := range rows {
		if r.Crossed && r.Fraction < target {
			t.Errorf("crossed row below target: %+v", r)
		}
		if !r.Crossed && (r.Fraction >= target || r.TP != tps[len(tps)-1]) {
			t.Errorf("uncrossed row inconsistent: %+v", r)
		}
	}
}
