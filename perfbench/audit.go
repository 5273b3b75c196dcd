package main

import (
	"math"
	"time"

	"twocs/internal/core"
	"twocs/internal/hw"
)

// auditResult is the fidelity audit: the operator model's projected
// serialized-communication fraction against the ground-truth pricing of
// the same layer, at every runnable Table-3 (H, SL, TP) point under the
// paper's 1x, 2x and 4x scenarios.
type auditResult struct {
	points int
	// errPct is the mean of |projected - truth| / truth, in percent.
	errPct float64
	// splitTime is the time spent inside MeasuredLayerSplit.
	splitTime time.Duration
}

// runAudit prices every audit point both ways. Every workload serves
// projections from the same calibrated model, so every workload
// reports this audit as proj_err_pct.
func runAudit(a *core.Analyzer) (auditResult, error) {
	var res auditResult
	var sum float64
	for _, evo := range hw.PaperScenarios() {
		for _, h := range core.Table3Hs() {
			for _, sl := range core.Table3SLs() {
				cfg, err := core.FutureConfig(h, sl, 1)
				if err != nil {
					return res, err
				}
				for _, tp := range core.Table3TPs() {
					if !cfg.TPDivides(tp) {
						continue
					}
					t0 := time.Now()
					compute, serialized, err := a.MeasuredLayerSplit(cfg, tp, evo)
					res.splitTime += time.Since(t0)
					if err != nil {
						return res, err
					}
					proj, err := a.SerializedFraction(cfg, tp, evo)
					if err != nil {
						return res, err
					}
					truth := float64(serialized) / float64(compute+serialized)
					sum += math.Abs(proj.CommFraction()-truth) / truth
					res.points++
				}
			}
		}
	}
	res.errPct = 100 * sum / float64(res.points)
	return res, nil
}
