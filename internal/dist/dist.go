// Package dist assembles distributed-training executions: it combines a
// model's operator graph (internal/model), kernel timing (internal/kernels)
// and collective costs (internal/collective) into per-device schedules the
// simulator can run, and implements the paper's required-TP estimator
// (§4.3.2, Fig 9b).
//
// The execution structure follows the paper's Figure 3: tensor-parallel
// all-reduces serialize against compute through dependencies, while
// data-parallel gradient all-reduces are issued onto the communication
// stream as their producing weight-gradient GEMMs retire, free to overlap
// with the remaining backward compute.
package dist

import (
	"fmt"

	"twocs/internal/collective"
	"twocs/internal/hw"
	"twocs/internal/kernels"
	"twocs/internal/model"
	"twocs/internal/telemetry"
	"twocs/internal/units"
)

// Plan is one distributed training configuration.
type Plan struct {
	Model model.Config
	// TP is the tensor-parallel degree; DP the data-parallel degree.
	TP, DP int
	// Cluster hosts the TP×DP devices.
	Cluster hw.Cluster
	// Algo selects the collective algorithm (default Ring).
	Algo collective.Algorithm
}

// Validate checks the plan is internally consistent.
func (p Plan) Validate() error {
	if err := p.Model.ValidateTP(p.TP); err != nil {
		return err
	}
	if p.DP < 1 {
		return fmt.Errorf("dist: dp degree must be >=1, got %d", p.DP)
	}
	if err := p.Cluster.Validate(); err != nil {
		return err
	}
	if p.TP*p.DP > p.Cluster.TotalDevices() {
		return fmt.Errorf("dist: plan needs %d devices, cluster has %d",
			p.TP*p.DP, p.Cluster.TotalDevices())
	}
	return nil
}

// Timer prices individual operators on a device, the bridge between the
// model's operator descriptors and the simulator's durations.
type Timer struct {
	Calc *kernels.Calculator
	// TPModel prices tensor-parallel collectives (group size TP);
	// DPModel prices data-parallel collectives (group size DP).
	TPModel, DPModel *collective.CostModel
	TP, DP           int
}

// NewTimer derives a Timer from a plan: TP groups are placed densely (so
// small TP groups enjoy intra-node bandwidth), while each DP ring spans
// nodes whenever TP×DP exceeds one node.
func NewTimer(p Plan, calc *kernels.Calculator) (*Timer, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	tpPath, err := collective.PathForGroup(p.Cluster, p.TP)
	if err != nil {
		return nil, err
	}
	tpModel, err := collective.NewCostModel(tpPath, p.Algo)
	if err != nil {
		return nil, err
	}
	// A DP ring touches one device of each TP group: if all DP peers
	// fit in one node the ring is intra-node, otherwise inter-node.
	dpSpan := p.TP * p.DP
	if p.DP == 1 {
		dpSpan = 1
	}
	dpPath, err := collective.PathForGroup(p.Cluster, dpSpan)
	if err != nil {
		return nil, err
	}
	dpModel, err := collective.NewCostModel(dpPath, p.Algo)
	if err != nil {
		return nil, err
	}
	return &Timer{Calc: calc, TPModel: tpModel, DPModel: dpModel, TP: p.TP, DP: p.DP}, nil
}

// opSimMetrics maps each operator kind to its histogram name, indexed
// by model.OpKind. Precomputing the names keeps the telemetry-enabled
// path allocation-free too: the old "dist.op."+kind+".sim_ns"
// concatenation allocated a fresh string per priced operator, millions
// of times per instrumented sweep.
var opSimMetrics = [...]string{
	model.GEMM:        "dist.op.gemm.sim_ns",
	model.LayerNorm:   "dist.op.layernorm.sim_ns",
	model.Softmax:     "dist.op.softmax.sim_ns",
	model.Elementwise: "dist.op.elementwise.sim_ns",
	model.TPAllReduce: "dist.op.tp-allreduce.sim_ns",
	model.DPAllReduce: "dist.op.dp-allreduce.sim_ns",
	model.FusedAttn:   "dist.op.fused-attention.sim_ns",
}

// opSimMetric names the histogram of simulated nanoseconds an operator
// kind feeds.
func opSimMetric(k model.OpKind) string {
	if int(k) < len(opSimMetrics) && opSimMetrics[k] != "" {
		return opSimMetrics[k]
	}
	return "dist.op.unknown.sim_ns"
}

// Time returns the standalone duration of one operator. When a
// telemetry collector is active, every priced operator feeds a
// per-kind histogram of simulated nanoseconds (deterministic: the
// durations are model outputs, not host measurements).
func (t *Timer) Time(op model.OpDesc) (units.Seconds, error) {
	d, err := t.timeOp(op)
	if err != nil {
		return 0, err
	}
	if tel := telemetry.Active(); tel != nil {
		tel.Observe(opSimMetric(op.Kind), telemetry.SimNanos(float64(d)))
	}
	return d, nil
}

func (t *Timer) timeOp(op model.OpDesc) (units.Seconds, error) {
	switch op.Kind {
	case model.GEMM:
		return t.Calc.GEMMTime(op.GEMM)
	case model.LayerNorm:
		return t.Calc.LayerNorm(op.Rows, op.Width, op.DT)
	case model.Softmax:
		return t.Calc.Softmax(op.Rows, op.Width, op.DT)
	case model.Elementwise:
		return t.Calc.Elementwise(op.Elems, op.Operands, op.DT)
	case model.FusedAttn:
		return t.Calc.FusedAttention(op.Rows, op.Width, op.HeadDim, op.DT)
	case model.TPAllReduce:
		return t.TPModel.AllReduce(t.TP, op.Bytes)
	case model.DPAllReduce:
		return t.DPModel.AllReduce(t.DP, op.Bytes)
	default:
		return 0, fmt.Errorf("dist: cannot time op kind %v", op.Kind)
	}
}
