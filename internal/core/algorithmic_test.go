package core

import (
	"fmt"

	"twocs/internal/model"
)

// The exact closed forms of the paper's Equations 4-6, kept as test
// oracles: TestComputeOpsMatchesOpGraph checks the op graph's forward
// FLOPs against Eq. 4, and TestAmdahlEdgeComplexity checks that the
// production EdgeComplexity, the asymptotic form of Eq. 6, scales as the
// exact ratio does.

// ComputeOps evaluates the paper's Equation 4: the per-layer GEMM work
// O(H·SL·B/TP·(H+SL)), with the equations' exact constants — FC GEMMs
// contribute 16·H²·SL·B/TP (FC dim 4H, two GEMMs, forward), attention
// 4·H·SL²·B/TP (two GEMMs), linear projections 8·H²·SL·B/TP.
func ComputeOps(c model.Config, tp int) (float64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	if tp < 1 {
		return 0, fmt.Errorf("core: tp degree must be >=1, got %d", tp)
	}
	h := float64(c.Hidden)
	sl := float64(c.SeqLen)
	b := float64(c.Batch)
	t := float64(tp)
	fc := 2 * 2 * h * float64(c.FCDim) / t * sl * b // Eq 1 (both FC GEMMs)
	attn := 2 * 2 * h / t * sl * sl * b             // Eq 2 (QKᵀ and PV)
	lin := 4 * 2 * h / t * h * sl * b               // Eq 3 (QKV + out proj)
	return fc + attn + lin, nil
}

// CommBytes evaluates Equation 5: the bytes one serialized all-reduce
// moves, (precision/8)·H·SL·B.
func CommBytes(c model.Config) float64 {
	return float64(c.ActivationBytes())
}

// AmdahlEdge evaluates Equation 6: compute's Amdahl's-law edge over
// serialized communication, with complexity O((H+SL)/TP).
func AmdahlEdge(c model.Config, tp int) (float64, error) {
	ops, err := ComputeOps(c, tp)
	if err != nil {
		return 0, err
	}
	bytes := model.SerializedARCount * CommBytes(c)
	if bytes == 0 {
		return 0, fmt.Errorf("core: zero communication bytes for %s", c.Name)
	}
	return ops / bytes, nil
}
