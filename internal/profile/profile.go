// Package profile plays the role rocprof played on the paper's testbed:
// it executes operators (against the analytical hardware substrate) and
// records per-operator timings, extracts the regions of interest (ROIs)
// of the overlapped-communication analysis (§4.2.2 step 2a), and accounts
// for profiling cost so the paper's 2100×/1.5× cost-saving claims can be
// reproduced on identical terms.
package profile

import (
	"fmt"

	"twocs/internal/model"
	"twocs/internal/units"
)

// OpTimer executes (prices) a single operator. dist.Timer implements it;
// tests may substitute fakes.
type OpTimer interface {
	Time(op model.OpDesc) (units.Seconds, error)
}

// Record is one profiled operator.
type Record struct {
	Op   model.OpDesc
	Time units.Seconds
}

// Profile is the result of one profiling run.
type Profile struct {
	// Model and TP identify the profiled configuration.
	Model model.Config
	TP    int
	// Records hold one entry per distinct operator of one layer's
	// iteration (forward + backward).
	Records []Record
	// Cost is the accelerator time spent collecting the profile: the
	// full iteration across all layers (profilers observe the real run).
	Cost units.Seconds
}

// Lookup finds a record by operator name.
func (p *Profile) Lookup(name string) (Record, bool) {
	for _, r := range p.Records {
		if r.Op.Name == name {
			return r, true
		}
	}
	return Record{}, false
}

// Iteration profiles one layer of a training iteration op-by-op. The
// recorded Cost charges the full model (all layers), since profiling a
// real iteration executes every layer even though the per-layer operator
// sequence repeats.
func Iteration(cfg model.Config, tp int, t OpTimer) (*Profile, error) {
	ops, err := model.CachedLayerOps(cfg, tp)
	if err != nil {
		return nil, err
	}
	p := &Profile{Model: cfg, TP: tp, Records: make([]Record, 0, len(ops))}
	var perLayer units.Seconds
	for _, op := range ops {
		d, err := t.Time(op)
		if err != nil {
			return nil, fmt.Errorf("profile: timing %s: %w", op.Name, err)
		}
		p.Records = append(p.Records, Record{Op: op, Time: d})
		perLayer += d
	}
	p.Cost = units.Seconds(float64(perLayer) * float64(cfg.Layers))
	return p, nil
}

// ROI is the overlapped-communication region of interest: the backprop
// weight-gradient and input-gradient GEMMs of one sub-layer, and the
// data-parallel all-reduce of that sub-layer's weight gradients
// (paper §3.4, Fig 5a). The two are executed in isolation, as §4.3.3
// prescribes, to measure their optimal standalone characteristics.
type ROI struct {
	Model model.Config
	TP    int

	// ComputeTime is the backprop GEMM time available to hide the
	// all-reduce (the slack).
	ComputeTime units.Seconds
	// CommTime is the overlapped weight-gradient all-reduce time.
	CommTime units.Seconds
	// Cost is the accelerator time spent executing the ROI.
	Cost units.Seconds
}

// OverlapPercent is the paper's Figure 11/13 metric: overlapped
// communication as a percentage of the compute it must hide under.
// Values >= 100 mean the communication cannot be hidden.
func (r ROI) OverlapPercent() float64 {
	return 100 * units.Ratio(float64(r.CommTime), float64(r.ComputeTime))
}

// OverlappedROI extracts and executes the FC sub-layer ROI for the given
// configuration. Per the paper the result is DP-degree-agnostic: ring
// all-reduce traffic per rank varies only by (N-1)/N (§4.3.2), so the
// timer's DP cost model carries whatever degree it was built with.
func OverlappedROI(cfg model.Config, tp int, t OpTimer) (ROI, error) {
	bwd, err := model.CachedLayerBackwardOps(cfg, tp)
	if err != nil {
		return ROI{}, err
	}
	roi := ROI{Model: cfg, TP: tp}
	for _, op := range bwd {
		if op.Kind != model.GEMM || op.Sublayer != "fc" {
			continue
		}
		d, err := t.Time(op)
		if err != nil {
			return ROI{}, fmt.Errorf("profile: timing %s: %w", op.Name, err)
		}
		roi.ComputeTime += d
	}
	if roi.ComputeTime == 0 {
		return ROI{}, fmt.Errorf("profile: no FC backprop GEMMs found for %s", cfg.Name)
	}
	// The overlapped collective moves the FC sub-layer's weight
	// gradients: its 1/TP shard of 2·H·FC weights (paper Eq 8).
	fcBytes := units.Bytes(2 * float64(cfg.Hidden) * float64(cfg.FCDim) /
		float64(tp) * float64(cfg.DT.Size()))
	d, err := t.Time(model.OpDesc{Kind: model.DPAllReduce, Bytes: fcBytes, DT: cfg.DT})
	if err != nil {
		return ROI{}, fmt.Errorf("profile: timing dp all-reduce: %w", err)
	}
	roi.CommTime = d
	roi.Cost = roi.ComputeTime + roi.CommTime
	return roi, nil
}
