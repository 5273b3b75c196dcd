package dist

import (
	"fmt"

	"twocs/internal/model"
	"twocs/internal/sim"
	"twocs/internal/units"
)

// ScheduleOptions tunes iteration-schedule construction.
type ScheduleOptions struct {
	// InterferenceSlowdown is passed to the simulator: >1 models the
	// §4.3.7 compute/communication interference effect.
	InterferenceSlowdown float64
	// DPBucketLayers aggregates the gradients of this many consecutive
	// layers into one data-parallel all-reduce (frameworks call this
	// bucketing). 0 or 1 reduces per layer. Larger buckets amortize
	// per-collective latency but delay the first reduction.
	DPBucketLayers int
	// Faults injects partial hardware failures into the simulation
	// (straggler device, fabric-wide comm derating); the zero value is
	// healthy.
	Faults sim.Faults
}

// Labels used by schedule ops and consumed by the report breakdowns.
const (
	LabelCompute = "compute"
	LabelTPComm  = "tp-allreduce"
	LabelDPComm  = "dp-allreduce"
)

// iterPricing is how a schedule's ops are priced, so a compiled
// iteration can refill durations under a different Timer without
// rebuilding the op graph. Every layer repeats the same descriptors, so
// the thousands of ops of an iteration share a few dozen distinct
// descriptors, its price classes.
type iterPricing struct {
	// classes are the distinct descriptors, numbered in order of first
	// use.
	classes []model.OpDesc
	// opClass[i] is the class of op i.
	opClass []int32
}

// prices writes every op's price under timer into dst (grown if
// needed) and returns the filled slice, pricing each class once.
func (pr *iterPricing) prices(timer *Timer, dst []units.Seconds) ([]units.Seconds, error) {
	n := len(pr.opClass)
	if cap(dst) < n {
		dst = make([]units.Seconds, n)
	}
	dst = dst[:n]
	for k, desc := range pr.classes {
		d, err := timer.timeOp(desc)
		if err != nil {
			return nil, err
		}
		dst[k] = d
	}
	// Classes are numbered in order of first use, so op i's class is
	// at most i: scattering from the last op back reads every class
	// price in dst[:len(classes)] before a write reaches its slot.
	for i := n - 1; i >= 0; i-- {
		dst[i] = dst[pr.opClass[i]]
	}
	return dst, nil
}

// buildIteration builds the simulator schedule of one full training
// iteration (all layers, forward and backward) as observed by one
// representative device, plus how each op is priced. Cross-device
// effects are already folded into each collective's duration by the
// Timer, which is exactly the paper's single-device-plus-models
// methodology (§4.3.3). Each price class is priced once, with no
// telemetry: the durations are compile-time placeholders that every
// re-time refills (see CompiledIteration.Refill).
func buildIteration(p Plan, timer *Timer, opts ScheduleOptions) ([]sim.Op, iterPricing, error) {
	var pr iterPricing
	if err := p.Validate(); err != nil {
		return nil, pr, err
	}
	if timer == nil {
		return nil, pr, fmt.Errorf("dist: nil timer")
	}

	var ops []sim.Op
	classOf := map[model.OpDesc]int32{}
	classify := func(d model.OpDesc) {
		k, ok := classOf[d]
		if !ok {
			k = int32(len(pr.classes))
			classOf[d] = k
			pr.classes = append(pr.classes, d)
		}
		pr.opClass = append(pr.opClass, k)
	}
	var prevBarrier string // last op the next compute op must wait for

	emit := func(name string, stream sim.Stream, label string, deps ...string) string {
		op := sim.Op{
			ID:     name,
			Device: 0,
			Stream: stream,
			Label:  label,
		}
		op.Deps = append(op.Deps, deps...)
		ops = append(ops, op)
		return name
	}

	// addLayerOps lowers one layer's operator list; serialized TP
	// all-reduces gate subsequent compute via prevBarrier.
	addLayerOps := func(layer int, descs []model.OpDesc) (lastOp string, err error) {
		for _, d := range descs {
			name := fmt.Sprintf("l%d.%s", layer, d.Name)
			switch {
			case d.Kind == model.TPAllReduce:
				// Serialized: depends on everything before it (the
				// in-order compute stream guarantees prior compute is
				// ordered; we depend on the last compute op) and the
				// next compute op depends on it.
				deps := []string{}
				if lastOp != "" {
					deps = append(deps, lastOp)
				} else if prevBarrier != "" {
					deps = append(deps, prevBarrier)
				}
				id := emit(name, sim.CommStream, LabelTPComm, deps...)
				classify(d)
				prevBarrier = id
				lastOp = id
			default:
				deps := []string{}
				if prevBarrier != "" {
					deps = append(deps, prevBarrier)
					prevBarrier = ""
				}
				id := emit(name, sim.ComputeStream, LabelCompute, deps...)
				classify(d)
				lastOp = id
			}
		}
		return lastOp, nil
	}

	// Forward: layers 0..L-1.
	for l := 0; l < p.Model.Layers; l++ {
		descs, err := model.LayerForwardOps(p.Model, p.TP)
		if err != nil {
			return nil, pr, err
		}
		if _, err := addLayerOps(l, descs); err != nil {
			return nil, pr, err
		}
	}

	// Backward: layers L-1..0, each followed by an overlapped DP
	// gradient all-reduce (if DP>1) that gates nothing downstream.
	gradBytes, err := model.DPGradientBytes(p.Model, p.TP)
	if err != nil {
		return nil, pr, err
	}
	bucket := opts.DPBucketLayers
	if bucket < 1 {
		bucket = 1
	}
	pending := 0 // layers whose gradients await reduction
	for l := p.Model.Layers - 1; l >= 0; l-- {
		descs, err := model.LayerBackwardOps(p.Model, p.TP)
		if err != nil {
			return nil, pr, err
		}
		last, err := addLayerOps(l, descs)
		if err != nil {
			return nil, pr, err
		}
		if p.DP == 1 {
			continue
		}
		pending++
		if pending < bucket && l > 0 {
			continue // keep accumulating the bucket
		}
		dpDesc := model.OpDesc{
			Kind:  model.DPAllReduce,
			Bytes: units.Bytes(float64(gradBytes) * float64(pending)),
			DT:    p.Model.DT,
		}
		emit(fmt.Sprintf("l%d.bwd.dp.allreduce", l), sim.DPCommStream, LabelDPComm, last)
		classify(dpDesc)
		pending = 0
	}

	durs, err := pr.prices(timer, nil)
	if err != nil {
		return nil, pr, err
	}
	for i, d := range durs {
		ops[i].Duration = d
	}
	return ops, pr, nil
}

// IterationReport summarizes one simulated iteration.
type IterationReport struct {
	Makespan units.Seconds
	// ComputeTime, TPCommTime, DPCommTime are executed-duration sums by
	// label.
	ComputeTime units.Seconds
	TPCommTime  units.Seconds
	DPCommTime  units.Seconds
	// ExposedTPComm is the TP all-reduce time during which compute
	// idled; ExposedDPComm the DP all-reduce time covered by neither
	// compute nor a TP all-reduce.
	ExposedTPComm units.Seconds
	ExposedDPComm units.Seconds
}

// TotalCommFraction is all exposed communication over the makespan.
func (r IterationReport) TotalCommFraction() float64 {
	return units.Ratio(float64(r.ExposedTPComm+r.ExposedDPComm), float64(r.Makespan))
}

// reportOf reads an iteration report off a run summary. The schedule
// runs on device 0, one label per stream: compute on the compute
// stream, TP all-reduces on the comm stream, DP all-reduces on the DP
// comm stream.
func reportOf(s *sim.Summary) IterationReport {
	comp := s.Lane(0, sim.ComputeStream)
	tp := s.Lane(0, sim.CommStream)
	dp := s.Lane(0, sim.DPCommStream)
	return IterationReport{
		Makespan:      s.Makespan,
		ComputeTime:   comp.Executed,
		TPCommTime:    tp.Executed,
		DPCommTime:    dp.Executed,
		ExposedTPComm: tp.Exposed,
		ExposedDPComm: dp.Exposed,
	}
}

// RunIteration builds, simulates and summarizes one training iteration.
// The schedule shape is compiled once per (model, TP, schedule options)
// and cached process-wide; each call re-prices the ops under its timer
// and re-times the compiled program (see CompileIteration). No trace is
// kept: CompiledIteration.Run is the path that returns one.
func RunIteration(p Plan, timer *Timer, opts ScheduleOptions) (IterationReport, error) {
	c, err := CompileIteration(p, timer, opts)
	if err != nil {
		return IterationReport{}, err
	}
	return c.Report(timer, sim.Config{
		InterferenceSlowdown: opts.InterferenceSlowdown,
		Faults:               opts.Faults,
	})
}
