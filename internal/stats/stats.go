// Package stats provides the small numeric toolkit the operator-level
// models are built on: the affine least-squares fit of the scaling laws
// identified by the algorithmic analysis, normalization, and the error
// metrics (relative error, geometric-mean error) the paper reports for
// model validation.
package stats

import (
	"errors"
	"fmt"
	"math"
)

// ErrInsufficientData is returned by fitting routines that need more
// observations than were supplied.
var ErrInsufficientData = errors.New("stats: insufficient data points for fit")

// ErrBadDomain is returned when inputs fall outside a fit's domain
// (e.g. degenerate x values for an affine fit).
var ErrBadDomain = errors.New("stats: input outside fit domain")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// GeoMean returns the geometric mean of xs. All values must be positive;
// non-positive values yield NaN, matching the undefined mathematical case.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// RelErr returns |got-want|/|want|, the relative error metric used for
// operator-model validation. A zero reference with a nonzero observation
// is reported as +Inf.
func RelErr(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// GeoMeanRelErr returns the geometric mean of the pointwise relative
// errors between got and want, the headline accuracy statistic in the
// paper's Figure 15 ("geomean error of only ~7%"). Errors below 0.01%
// are clamped to that floor so a single near-exact point cannot collapse
// the geometric mean.
func GeoMeanRelErr(got, want []float64) (float64, error) {
	if len(got) != len(want) || len(got) == 0 {
		return 0, fmt.Errorf("%w: len(got)=%d len(want)=%d", ErrInsufficientData, len(got), len(want))
	}
	const floor = 1e-4
	errsv := make([]float64, len(got))
	for i := range got {
		e := RelErr(got[i], want[i])
		if e < floor {
			e = floor
		}
		errsv[i] = e
	}
	return GeoMean(errsv), nil
}

// MaxRelErr returns the maximum pointwise relative error.
func MaxRelErr(got, want []float64) (float64, error) {
	if len(got) != len(want) || len(got) == 0 {
		return 0, fmt.Errorf("%w: len(got)=%d len(want)=%d", ErrInsufficientData, len(got), len(want))
	}
	m := 0.0
	for i := range got {
		if e := RelErr(got[i], want[i]); e > m {
			m = e
		}
	}
	return m, nil
}

// Affine is a fit y = Slope*x + Intercept. The intercept absorbs
// size-independent costs such as kernel-launch overhead and per-hop
// network latency.
type Affine struct {
	Slope, Intercept float64
}

// FitAffine computes the ordinary least-squares line.
func FitAffine(xs, ys []float64) (Affine, error) {
	n := float64(len(xs))
	if len(xs) != len(ys) || len(xs) < 2 {
		return Affine{}, ErrInsufficientData
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return Affine{}, fmt.Errorf("%w: degenerate x values", ErrBadDomain)
	}
	slope := (n*sxy - sx*sy) / den
	return Affine{Slope: slope, Intercept: (sy - slope*sx) / n}, nil
}

// Eval returns Slope*x + Intercept.
func (a Affine) Eval(x float64) float64 { return a.Slope*x + a.Intercept }

// Normalize returns xs scaled so the element at index ref equals 1.
// It is used to produce the paper's "normalized to BERT" figures.
func Normalize(xs []float64, ref int) ([]float64, error) {
	if ref < 0 || ref >= len(xs) {
		return nil, fmt.Errorf("stats: reference index %d out of range [0,%d)", ref, len(xs))
	}
	if xs[ref] == 0 {
		return nil, fmt.Errorf("%w: reference value is zero", ErrBadDomain)
	}
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x / xs[ref]
	}
	return out, nil
}
