package stats

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol*math.Max(1, math.Abs(b)) }

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v", got)
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 100}); !almostEq(got, 10, 1e-12) {
		t.Errorf("GeoMean(1,100) = %v, want 10", got)
	}
	if !math.IsNaN(GeoMean([]float64{1, -1})) {
		t.Error("GeoMean with negative input must be NaN")
	}
	if GeoMean(nil) != 0 {
		t.Error("GeoMean(nil) != 0")
	}
}

func TestRelErr(t *testing.T) {
	if got := RelErr(110, 100); !almostEq(got, 0.1, 1e-12) {
		t.Errorf("RelErr = %v", got)
	}
	if RelErr(0, 0) != 0 {
		t.Error("RelErr(0,0) != 0")
	}
	if !math.IsInf(RelErr(1, 0), 1) {
		t.Error("RelErr(1,0) must be +Inf")
	}
}

func TestGeoMeanRelErr(t *testing.T) {
	got := []float64{110, 90}
	want := []float64{100, 100}
	e, err := GeoMeanRelErr(got, want)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(e, 0.1, 1e-9) {
		t.Errorf("GeoMeanRelErr = %v, want 0.1", e)
	}
	if _, err := GeoMeanRelErr(nil, nil); err == nil {
		t.Error("expected error on empty input")
	}
}

func TestMaxRelErr(t *testing.T) {
	e, err := MaxRelErr([]float64{110, 150}, []float64{100, 100})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(e, 0.5, 1e-12) {
		t.Errorf("MaxRelErr = %v", e)
	}
}

func TestFitAffineExact(t *testing.T) {
	a, err := FitAffine([]float64{0, 1, 2}, []float64{3, 5, 7})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(a.Slope, 2, 1e-12) || !almostEq(a.Intercept, 3, 1e-12) {
		t.Errorf("fit = %+v", a)
	}
}

func TestFitAffineErrors(t *testing.T) {
	if _, err := FitAffine([]float64{1}, []float64{1}); !errors.Is(err, ErrInsufficientData) {
		t.Errorf("err = %v", err)
	}
	if _, err := FitAffine([]float64{2, 2}, []float64{1, 5}); !errors.Is(err, ErrBadDomain) {
		t.Errorf("err = %v", err)
	}
}

func TestNormalize(t *testing.T) {
	out, err := Normalize([]float64{2, 4, 8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 1 || out[1] != 2 || out[2] != 4 {
		t.Errorf("Normalize = %v", out)
	}
	if _, err := Normalize([]float64{0, 1}, 0); err == nil {
		t.Error("expected zero-reference error")
	}
	if _, err := Normalize([]float64{1}, 5); err == nil {
		t.Error("expected range error")
	}
}

// Property: FitAffine recovers arbitrary lines exactly (up to numerics)
// from noiseless samples.
func TestFitAffineRecoveryProperty(t *testing.T) {
	f := func(slope, intercept float64) bool {
		if math.Abs(slope) > 1e6 || math.Abs(intercept) > 1e6 {
			return true
		}
		xs := []float64{-2, -1, 0, 1, 2, 5}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = slope*x + intercept
		}
		a, err := FitAffine(xs, ys)
		if err != nil {
			return false
		}
		return almostEq(a.Slope, slope, 1e-6) && almostEq(a.Intercept, intercept, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: GeoMean is scale-equivariant: GeoMean(k*xs) = k*GeoMean(xs).
func TestGeoMeanScaleProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 5)
		scaled := make([]float64, 5)
		k := 1 + rng.Float64()*10
		for i := range xs {
			xs[i] = 0.1 + rng.Float64()*100
			scaled[i] = k * xs[i]
		}
		return almostEq(GeoMean(scaled), k*GeoMean(xs), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
