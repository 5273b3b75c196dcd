package dist

import (
	"fmt"

	"twocs/internal/collective"
	"twocs/internal/model"
	"twocs/internal/sim"
	"twocs/internal/units"
)

// This file lowers a tensor-parallel group onto the simulator with every
// rank explicit: each TP rank is a simulated device executing its shard
// of the layer, and each serialized all-reduce is decomposed into its
// 2(N-1) ring steps as cross-device communication ops. The single-device
// schedules in schedule.go fold collectives into one priced op; this
// explicit form exists to validate that folding — the makespans must
// agree — and to expose straggler effects when one rank is slowed.

// TPGroupOptions configures the explicit-group lowering.
type TPGroupOptions struct {
	// Layers bounds how many layers to lower (0 = all). Explicit groups
	// multiply op counts by TP·steps, so callers usually sample.
	Layers int
	// StragglerRank, if >= 0, slows one rank's compute by
	// StragglerFactor — the heterogeneity study.
	StragglerRank   int
	StragglerFactor float64
}

// BuildTPGroupForward lowers the forward pass of a TP group of size
// p.TP, one simulated device per rank, ring all-reduces decomposed into
// per-step ops on the comm streams.
func BuildTPGroupForward(p Plan, timer *Timer, opts TPGroupOptions) ([]sim.Op, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if timer == nil {
		return nil, fmt.Errorf("dist: nil timer")
	}
	if p.TP < 2 {
		return nil, fmt.Errorf("dist: explicit TP group needs TP >= 2, got %d", p.TP)
	}
	if opts.StragglerRank >= p.TP {
		return nil, fmt.Errorf("dist: straggler rank %d out of range", opts.StragglerRank)
	}
	if opts.StragglerRank >= 0 && opts.StragglerFactor < 1 {
		return nil, fmt.Errorf("dist: straggler factor must be >= 1, got %v", opts.StragglerFactor)
	}
	layers := p.Model.Layers
	if opts.Layers > 0 && opts.Layers < layers {
		layers = opts.Layers
	}

	descs, err := model.LayerForwardOps(p.Model, p.TP)
	if err != nil {
		return nil, err
	}
	// Ring step time: each of the 2(N-1) steps moves bytes/N.
	path := timer.TPModel.Path
	stepTime := func(bytes units.Bytes) (units.Seconds, error) {
		cm, err := collective.NewCostModel(path, collective.Ring)
		if err != nil {
			return 0, err
		}
		// One step of the ring = AllReduce time / (2(N-1)) by
		// construction of the ring model.
		full, err := cm.AllReduce(p.TP, bytes)
		if err != nil {
			return 0, err
		}
		return units.Seconds(float64(full) / float64(2*(p.TP-1))), nil
	}

	var ops []sim.Op
	// lastAR[r] names rank r's last all-reduce completion, gating its
	// next compute; lastCompute[r] names its last compute op, gating the
	// ring's first step (the partials must exist before they move).
	lastAR := make([]string, p.TP)
	lastCompute := make([]string, p.TP)
	for l := 0; l < layers; l++ {
		for _, d := range descs {
			if d.Kind == model.TPAllReduce {
				st, err := stepTime(d.Bytes)
				if err != nil {
					return nil, err
				}
				// 2(N-1) lock-step rounds; in each, every rank sends to
				// its right neighbour. Receiving rank's step s depends
				// on the sender's step s-1 — the ring's data dependency.
				steps := 2 * (p.TP - 1)
				for s := 0; s < steps; s++ {
					for r := 0; r < p.TP; r++ {
						id := fmt.Sprintf("l%d.%s.s%d.r%d", l, d.Name, s, r)
						var deps []string
						if s == 0 {
							if lastCompute[r] != "" {
								deps = append(deps, lastCompute[r])
							}
						} else {
							left := (r - 1 + p.TP) % p.TP
							deps = append(deps,
								fmt.Sprintf("l%d.%s.s%d.r%d", l, d.Name, s-1, left))
						}
						ops = append(ops, sim.Op{
							ID: id, Device: r, Stream: sim.CommStream,
							Duration: st, Label: LabelTPComm, Deps: deps,
						})
					}
				}
				for r := 0; r < p.TP; r++ {
					lastAR[r] = fmt.Sprintf("l%d.%s.s%d.r%d", l, d.Name, steps-1, r)
				}
				continue
			}
			dur, err := timer.Time(d)
			if err != nil {
				return nil, err
			}
			for r := 0; r < p.TP; r++ {
				rd := dur
				if r == opts.StragglerRank && opts.StragglerFactor > 1 {
					rd = units.Seconds(float64(dur) * opts.StragglerFactor)
				}
				var deps []string
				if lastAR[r] != "" {
					deps = append(deps, lastAR[r])
					lastAR[r] = ""
				}
				id := fmt.Sprintf("l%d.%s.r%d", l, d.Name, r)
				ops = append(ops, sim.Op{
					ID: id, Device: r, Stream: sim.ComputeStream,
					Duration: rd, Label: LabelCompute, Deps: deps,
				})
				lastCompute[r] = id
			}
		}
	}
	return ops, nil
}

// TPGroupReport summarizes an explicit-group simulation.
type TPGroupReport struct {
	Makespan units.Seconds
	// PerRankCompute is each rank's compute-stream busy time.
	PerRankCompute []units.Seconds
	// ExposedComm is rank 0's serialized-comm exposure.
	ExposedComm units.Seconds
}

// SimulateTPGroupForward runs the explicit-group forward pass.
func SimulateTPGroupForward(p Plan, timer *Timer, opts TPGroupOptions) (*TPGroupReport, error) {
	ops, err := BuildTPGroupForward(p, timer, opts)
	if err != nil {
		return nil, err
	}
	trace, err := runOps(ops, sim.Config{})
	if err != nil {
		return nil, err
	}
	rep := &TPGroupReport{Makespan: trace.Makespan}
	for r := 0; r < p.TP; r++ {
		rep.PerRankCompute = append(rep.PerRankCompute, busyTime(trace, r, sim.ComputeStream))
	}
	rep.ExposedComm = exposedCommOn(trace, 0, sim.CommStream)
	return rep, nil
}
