// Package core is the Comp-vs-Comm analyzer — the top-level API tying the
// paper's three analysis axes together: the algorithmic complexity ratios
// of Section 3, the empirical projections of Section 4 (built on the
// profile and opmodel packages), and the hardware-evolution scenarios of
// §4.3.6.
package core

import (
	"fmt"

	"twocs/internal/model"
	"twocs/internal/stats"
)

// This file implements the algorithmic analysis (paper Section 3):
// closed-form compute-vs-communication complexity ratios that are
// hardware- and system-agnostic.

// EdgeComplexity is the asymptotic form of Equation 6, (H+SL)/TP — the
// quantity the paper tracks across model generations (Fig 7).
// The closed-form ratio is purely arithmetic, so it does not require tp
// to divide the head count the way an actual sharding would.
func EdgeComplexity(c model.Config, tp int) (float64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	if tp < 1 {
		return 0, fmt.Errorf("core: tp degree must be >=1, got %d", tp)
	}
	return (float64(c.Hidden) + float64(c.SeqLen)) / float64(tp), nil
}

// SlackAdvantage evaluates Equation 9: compute's slack to hide the
// overlapped weight-gradient all-reduce, with complexity O(SL·B).
func SlackAdvantage(c model.Config) float64 {
	return float64(c.SeqLen) * float64(c.Batch)
}

// AlgRow is one model's algorithmic-scaling row (Fig 7): its edge and
// slack, normalized to the first model in the series (BERT).
type AlgRow struct {
	Model string
	Year  int
	// Edge and Slack are raw complexity values; NormEdge and NormSlack
	// are normalized to the first row.
	Edge, Slack         float64
	NormEdge, NormSlack float64
}

// AlgorithmicScaling computes the Figure 7 series over a model sequence.
func AlgorithmicScaling(entries []model.ZooEntry) ([]AlgRow, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("core: no models")
	}
	rows := make([]AlgRow, len(entries))
	edges := make([]float64, len(entries))
	slacks := make([]float64, len(entries))
	for i, e := range entries {
		edge, err := EdgeComplexity(e.Config, e.TP)
		if err != nil {
			return nil, err
		}
		edges[i] = edge
		slacks[i] = SlackAdvantage(e.Config)
		rows[i] = AlgRow{Model: e.Config.Name, Year: e.Year, Edge: edge, Slack: slacks[i]}
	}
	ne, err := stats.Normalize(edges, 0)
	if err != nil {
		return nil, err
	}
	ns, err := stats.Normalize(slacks, 0)
	if err != nil {
		return nil, err
	}
	for i := range rows {
		rows[i].NormEdge = ne[i]
		rows[i].NormSlack = ns[i]
	}
	return rows, nil
}

// MemoryTrendRow is one Figure 6 sample: a model's H·SL memory-demand
// proxy against the device-capacity trend of its year, both normalized to
// the first row.
type MemoryTrendRow struct {
	Model        string
	Year         int
	DemandProxy  float64
	NormDemand   float64
	NormCapacity float64
}

// MemoryTrend computes the Figure 6 series: model demand (H·SL) grows
// multiplicatively while device capacity grows linearly, so the
// normalized gap widens with every generation.
func MemoryTrend(entries []model.ZooEntry, capacityAt func(year int) (float64, error)) ([]MemoryTrendRow, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("core: no models")
	}
	rows := make([]MemoryTrendRow, len(entries))
	demands := make([]float64, len(entries))
	caps := make([]float64, len(entries))
	for i, e := range entries {
		demands[i] = e.Config.MemoryProxy()
		c, err := capacityAt(e.Year)
		if err != nil {
			return nil, err
		}
		caps[i] = c
		rows[i] = MemoryTrendRow{Model: e.Config.Name, Year: e.Year, DemandProxy: demands[i]}
	}
	nd, err := stats.Normalize(demands, 0)
	if err != nil {
		return nil, err
	}
	nc, err := stats.Normalize(caps, 0)
	if err != nil {
		return nil, err
	}
	for i := range rows {
		rows[i].NormDemand = nd[i]
		rows[i].NormCapacity = nc[i]
	}
	return rows, nil
}
