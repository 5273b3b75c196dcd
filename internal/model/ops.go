package model

import (
	"fmt"

	"twocs/internal/tensor"
	"twocs/internal/units"
)

// OpKind classifies the operators of a Transformer training iteration.
type OpKind int

// Operator kinds. TPAllReduce is the serialized activation/error
// all-reduce of tensor parallelism (on the critical path, Fig 3b);
// DPAllReduce is the overlapped weight-gradient all-reduce of data
// parallelism (asynchronous, Fig 3a).
const (
	GEMM OpKind = iota
	LayerNorm
	Softmax
	Elementwise
	TPAllReduce
	DPAllReduce
	// FusedAttn is a FlashAttention-style fused attention core,
	// emitted when Config.FusedAttention is set.
	FusedAttn
)

// String names the kind.
func (k OpKind) String() string {
	switch k {
	case GEMM:
		return "gemm"
	case LayerNorm:
		return "layernorm"
	case Softmax:
		return "softmax"
	case Elementwise:
		return "elementwise"
	case TPAllReduce:
		return "tp-allreduce"
	case DPAllReduce:
		return "dp-allreduce"
	case FusedAttn:
		return "fused-attention"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// IsComm reports whether the kind is communication.
func (k OpKind) IsComm() bool { return k == TPAllReduce || k == DPAllReduce }

// Phase is forward or backward.
type Phase int

// Training phases.
const (
	Forward Phase = iota
	Backward
)

// String names the phase.
func (p Phase) String() string {
	if p == Forward {
		return "fwd"
	}
	return "bwd"
}

// OpDesc is one operator of the per-device execution, sized for a given
// TP degree.
type OpDesc struct {
	Name     string
	Kind     OpKind
	Phase    Phase
	Sublayer string // "attn" or "fc"

	// DT is the number format of the op's data.
	DT tensor.DType

	// GEMM holds dimensions when Kind==GEMM.
	GEMM tensor.MatMul
	// Rows/Width hold dimensions for LayerNorm and Softmax; for
	// FusedAttn they hold batch·heads and sequence length, with
	// HeadDim carrying the per-head width.
	Rows, Width int
	HeadDim     int
	// Elems/Operands hold sizing for Elementwise.
	Elems    float64
	Operands int
	// Bytes holds the payload for communication kinds.
	Bytes units.Bytes
}

// FLOPs returns the arithmetic work of the op (GEMMs only; other kinds
// are bandwidth-bound and charged by bytes in the timing models).
func (o OpDesc) FLOPs() units.FLOPs {
	if o.Kind == GEMM {
		return o.GEMM.FLOPs()
	}
	return 0
}

// LayerForwardOps returns the per-device operator sequence of one layer's
// forward pass under TP-degree tp, in execution order (Megatron-style
// sharding, paper Fig 4b): column-parallel QKV and FC1, row-parallel
// projection and FC2 each followed by a serialized all-reduce of the
// partial activations.
func LayerForwardOps(c Config, tp int) ([]OpDesc, error) {
	if err := c.ValidateTP(tp); err != nil {
		return nil, err
	}
	bsl := c.Batch * c.SeqLen
	headDim := c.Hidden / c.Heads
	shardHeads := c.Heads / tp
	arBytes := c.ActivationBytes()

	ops := []OpDesc{
		{Name: "fwd.attn.qkv", Kind: GEMM, Phase: Forward, Sublayer: "attn",
			GEMM: tensor.MatMul{M: bsl, N: 3 * c.Hidden / tp, K: c.Hidden, DT: c.DT}},
	}
	if c.FusedAttention {
		ops = append(ops, OpDesc{Name: "fwd.attn.flash", Kind: FusedAttn, Phase: Forward,
			Sublayer: "attn", Rows: c.Batch * shardHeads, Width: c.SeqLen, HeadDim: headDim})
	} else {
		ops = append(ops,
			OpDesc{Name: "fwd.attn.scores", Kind: GEMM, Phase: Forward, Sublayer: "attn",
				GEMM: tensor.MatMul{M: c.Batch * shardHeads * c.SeqLen, N: c.SeqLen, K: headDim, DT: c.DT}},
			OpDesc{Name: "fwd.attn.softmax", Kind: Softmax, Phase: Forward, Sublayer: "attn",
				Rows: c.Batch * shardHeads * c.SeqLen, Width: c.SeqLen},
			OpDesc{Name: "fwd.attn.ctx", Kind: GEMM, Phase: Forward, Sublayer: "attn",
				GEMM: tensor.MatMul{M: c.Batch * shardHeads * c.SeqLen, N: headDim, K: c.SeqLen, DT: c.DT}},
		)
	}
	ops = append(ops, OpDesc{Name: "fwd.attn.proj", Kind: GEMM, Phase: Forward, Sublayer: "attn",
		GEMM: tensor.MatMul{M: bsl, N: c.Hidden, K: c.Hidden / tp, DT: c.DT}})
	if tp > 1 {
		ops = append(ops, OpDesc{Name: "fwd.attn.allreduce", Kind: TPAllReduce,
			Phase: Forward, Sublayer: "attn", Bytes: arBytes})
	}
	ops = append(ops,
		OpDesc{Name: "fwd.attn.residual", Kind: Elementwise, Phase: Forward, Sublayer: "attn",
			Elems: c.ActivationElems(), Operands: 2},
		OpDesc{Name: "fwd.attn.layernorm", Kind: LayerNorm, Phase: Forward, Sublayer: "attn",
			Rows: bsl, Width: c.Hidden},
		// GELU is fused into FC1's epilogue (paper §2.1 kernel fusion),
		// so it does not appear as a separate operator.
		OpDesc{Name: "fwd.fc.fc1", Kind: GEMM, Phase: Forward, Sublayer: "fc",
			GEMM: tensor.MatMul{M: bsl, N: c.FCDim / tp, K: c.Hidden, DT: c.DT}},
		OpDesc{Name: "fwd.fc.fc2", Kind: GEMM, Phase: Forward, Sublayer: "fc",
			GEMM: tensor.MatMul{M: bsl, N: c.Hidden, K: c.FCDim / tp, DT: c.DT}},
	)
	if tp > 1 {
		ops = append(ops, OpDesc{Name: "fwd.fc.allreduce", Kind: TPAllReduce,
			Phase: Forward, Sublayer: "fc", Bytes: arBytes})
	}
	ops = append(ops,
		OpDesc{Name: "fwd.fc.residual", Kind: Elementwise, Phase: Forward, Sublayer: "fc",
			Elems: c.ActivationElems(), Operands: 2},
		OpDesc{Name: "fwd.fc.layernorm", Kind: LayerNorm, Phase: Forward, Sublayer: "fc",
			Rows: bsl, Width: c.Hidden},
	)
	for i := range ops {
		ops[i].DT = c.DT
	}
	return ops, nil
}

// backwardPair emits the input-gradient and weight-gradient GEMMs for a
// forward GEMM with dimensions (M,N,K): IG is dY[M,N]·Wᵀ[N,K], WG is
// Xᵀ[K,M]·dY[M,N]. Each has the same FLOP count as the forward GEMM.
func backwardPair(name, sublayer string, fwd tensor.MatMul) []OpDesc {
	return []OpDesc{
		{Name: name + ".ig", Kind: GEMM, Phase: Backward, Sublayer: sublayer,
			GEMM: tensor.MatMul{M: fwd.M, N: fwd.K, K: fwd.N, DT: fwd.DT}},
		{Name: name + ".wg", Kind: GEMM, Phase: Backward, Sublayer: sublayer,
			GEMM: tensor.MatMul{M: fwd.K, N: fwd.N, K: fwd.M, DT: fwd.DT}},
	}
}

// LayerBackwardOps returns the per-device backward pass of one layer, in
// execution order (reverse of forward). Each forward GEMM yields an
// input-gradient and a weight-gradient GEMM; the two column-parallel
// layers' input gradients are partial and require the layer's other two
// serialized all-reduces (total four per layer, paper §3.3).
func LayerBackwardOps(c Config, tp int) ([]OpDesc, error) {
	fwd, err := LayerForwardOps(c, tp)
	if err != nil {
		return nil, err
	}
	byName := make(map[string]OpDesc, len(fwd))
	for _, o := range fwd {
		byName[o.Name] = o
	}
	bsl := c.Batch * c.SeqLen
	arBytes := c.ActivationBytes()

	var ops []OpDesc
	ops = append(ops, OpDesc{Name: "bwd.fc.layernorm", Kind: LayerNorm, Phase: Backward,
		Sublayer: "fc", Rows: bsl, Width: c.Hidden})
	ops = append(ops, backwardPair("bwd.fc.fc2", "fc", byName["fwd.fc.fc2"].GEMM)...)
	ops = append(ops, backwardPair("bwd.fc.fc1", "fc", byName["fwd.fc.fc1"].GEMM)...)
	if tp > 1 {
		// FC1 is column-parallel: its input gradient is partial.
		ops = append(ops, OpDesc{Name: "bwd.fc.allreduce", Kind: TPAllReduce,
			Phase: Backward, Sublayer: "fc", Bytes: arBytes})
	}
	ops = append(ops, OpDesc{Name: "bwd.attn.layernorm", Kind: LayerNorm, Phase: Backward,
		Sublayer: "attn", Rows: bsl, Width: c.Hidden})
	ops = append(ops, backwardPair("bwd.attn.proj", "attn", byName["fwd.attn.proj"].GEMM)...)
	if c.FusedAttention {
		// FlashAttention backward recomputes the scores on-chip; its
		// cost is two forward-equivalent fused passes, matching the 2×
		// convention of the unfused path.
		fw := byName["fwd.attn.flash"]
		for _, suffix := range []string{"ig", "wg"} {
			ops = append(ops, OpDesc{Name: "bwd.attn.flash." + suffix, Kind: FusedAttn,
				Phase: Backward, Sublayer: "attn",
				Rows: fw.Rows, Width: fw.Width, HeadDim: fw.HeadDim})
		}
	} else {
		ops = append(ops, backwardPair("bwd.attn.ctx", "attn", byName["fwd.attn.ctx"].GEMM)...)
		ops = append(ops, OpDesc{Name: "bwd.attn.softmax", Kind: Elementwise, Phase: Backward,
			Sublayer: "attn", Elems: float64(c.Batch*(c.Heads/tp)*c.SeqLen) * float64(c.SeqLen), Operands: 2})
		ops = append(ops, backwardPair("bwd.attn.scores", "attn", byName["fwd.attn.scores"].GEMM)...)
	}
	ops = append(ops, backwardPair("bwd.attn.qkv", "attn", byName["fwd.attn.qkv"].GEMM)...)
	if tp > 1 {
		// QKV is column-parallel: its input gradient is partial.
		ops = append(ops, OpDesc{Name: "bwd.attn.allreduce", Kind: TPAllReduce,
			Phase: Backward, Sublayer: "attn", Bytes: arBytes})
	}
	for i := range ops {
		ops[i].DT = c.DT
	}
	return ops, nil
}

// LayerOps returns the full per-layer iteration sequence: forward then
// backward.
func LayerOps(c Config, tp int) ([]OpDesc, error) {
	fwd, err := LayerForwardOps(c, tp)
	if err != nil {
		return nil, err
	}
	bwd, err := LayerBackwardOps(c, tp)
	if err != nil {
		return nil, err
	}
	return append(fwd, bwd...), nil
}

// DPGradientBytes returns the per-layer weight-gradient payload one
// device contributes to the data-parallel all-reduce: its 1/TP shard of
// the layer's weights (paper Eq 8, complexity O(H²/TP)).
func DPGradientBytes(c Config, tp int) (units.Bytes, error) {
	if err := c.ValidateTP(tp); err != nil {
		return 0, err
	}
	return units.Bytes(c.LayerParams() / float64(tp) * float64(c.DT.Size())), nil
}

// SerializedARCount is the number of serialized all-reduces per layer per
// iteration under tensor parallelism (two forward + two backward).
const SerializedARCount = 4
