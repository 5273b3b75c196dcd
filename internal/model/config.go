// Package model describes Transformer architectures at the level the
// Comp-vs-Comm analysis needs: hyperparameters (Table 1), the operator
// graph of a training iteration under tensor- and data-parallel sharding
// (Fig 4), closed-form parameter and memory accounting, and the model zoo
// of published Transformers (Table 2).
package model

import (
	"fmt"

	"twocs/internal/tensor"
	"twocs/internal/units"
)

// LayerKind distinguishes encoder and decoder layers. Decoder attention is
// masked, which changes inference but not training cost (paper §2.1), so
// the distinction is descriptive here.
type LayerKind int

// Layer kinds.
const (
	Encoder LayerKind = iota
	Decoder
	EncoderDecoder
)

// String names the kind as in Table 2.
func (k LayerKind) String() string {
	switch k {
	case Encoder:
		return "En."
	case Decoder:
		return "Dec."
	case EncoderDecoder:
		return "EnDec."
	default:
		return fmt.Sprintf("LayerKind(%d)", int(k))
	}
}

// Config is a Transformer architecture plus training input shape — the
// hyperparameters of Table 1 (H, B, SL) and the structural ones (layers,
// heads, FC dim) that size each operation.
type Config struct {
	Name   string
	Kind   LayerKind
	Layers int
	Hidden int // H
	FCDim  int // feed-forward inner dimension, usually 4H
	Heads  int
	Vocab  int

	SeqLen int // SL
	Batch  int // B

	DT tensor.DType

	// FusedAttention replaces the three-kernel attention core (scores
	// GEMM, softmax, context GEMM) with one FlashAttention-style fused
	// operator in the layer graph.
	FusedAttention bool
}

// Validate reports structural problems.
func (c Config) Validate() error {
	switch {
	case c.Layers <= 0:
		return fmt.Errorf("model %s: layers must be positive, got %d", c.Name, c.Layers)
	case c.Hidden <= 0:
		return fmt.Errorf("model %s: hidden must be positive, got %d", c.Name, c.Hidden)
	case c.FCDim <= 0:
		return fmt.Errorf("model %s: fc dim must be positive, got %d", c.Name, c.FCDim)
	case c.Heads <= 0:
		return fmt.Errorf("model %s: heads must be positive, got %d", c.Name, c.Heads)
	case c.Hidden%c.Heads != 0:
		return fmt.Errorf("model %s: hidden %d not divisible by heads %d", c.Name, c.Hidden, c.Heads)
	case c.SeqLen <= 0:
		return fmt.Errorf("model %s: sequence length must be positive, got %d", c.Name, c.SeqLen)
	case c.Batch <= 0:
		return fmt.Errorf("model %s: batch must be positive, got %d", c.Name, c.Batch)
	case c.Vocab < 0:
		return fmt.Errorf("model %s: vocab must be non-negative, got %d", c.Name, c.Vocab)
	}
	return nil
}

// ValidateTP additionally checks that a tensor-parallel degree divides the
// sharded dimensions.
func (c Config) ValidateTP(tp int) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if tp <= 0 {
		return fmt.Errorf("model %s: tp degree must be positive, got %d", c.Name, tp)
	}
	if c.Heads%tp != 0 || c.FCDim%tp != 0 {
		return fmt.Errorf("model %s: tp=%d must divide heads=%d and fc=%d",
			c.Name, tp, c.Heads, c.FCDim)
	}
	return nil
}

// TPDivides reports whether a tensor-parallel degree divides the sharded
// dimensions — the skip-vs-run decision of the grid sweeps. It is the
// divisibility half of ValidateTP, for callers that validated the
// configuration once up front and only need the per-TP check inside a
// sweep's inner loop.
func (c Config) TPDivides(tp int) bool {
	return tp > 0 && c.Heads%tp == 0 && c.FCDim%tp == 0
}

// CalibrationTP picks the tensor-parallel degree an analyzer's baseline
// profile calibrates at for cfg: the first small candidate degree that
// divides the model's heads and feed-forward width. The candidate order
// prefers 4 — the degree the BERT baseline has always calibrated at —
// and covers every zoo head count (GPT-2's 25 heads fall through to 5).
// TP=1 is the last resort; it calibrates without any AllReduce traffic,
// so a model that only divides by 1 gets a compute-only baseline.
func CalibrationTP(cfg Config) int {
	for _, tp := range []int{4, 8, 2, 5} {
		if cfg.TPDivides(tp) {
			return tp
		}
	}
	return 1
}

// LayerParams returns the parameter count of one Transformer layer:
// 4H² attention weights (QKV + output projection) plus 2·H·FC feed-forward
// weights plus biases and the two LayerNorms' gains/biases.
func (c Config) LayerParams() float64 {
	h := float64(c.Hidden)
	fc := float64(c.FCDim)
	attn := 4*h*h + 4*h
	ff := 2*h*fc + fc + h
	norms := 2 * 2 * h
	return attn + ff + norms
}

// Params returns the total parameter count including the token embedding
// (vocab×H), the dominant non-layer term at BERT scale.
func (c Config) Params() float64 {
	return float64(c.Layers)*c.LayerParams() + float64(c.Vocab)*float64(c.Hidden)
}

// ActivationElems returns the elements of one full-width activation
// tensor [B, SL, H] — the unit the serialized TP all-reduces move.
func (c Config) ActivationElems() float64 {
	return float64(c.Batch) * float64(c.SeqLen) * float64(c.Hidden)
}

// ActivationBytes returns ActivationElems in format DT — the paper's
// Equation 5 serialized-communication volume, (precision/8)·H·SL·B.
func (c Config) ActivationBytes() units.Bytes {
	return units.Bytes(c.ActivationElems() * float64(c.DT.Size()))
}

// MemoryProxy returns H·SL, the paper's Figure 6 proxy for a model's
// memory demand growth (parameters grow ∝H², activations ∝SL·H).
func (c Config) MemoryProxy() float64 {
	return float64(c.Hidden) * float64(c.SeqLen)
}

// String renders the config compactly.
func (c Config) String() string {
	return fmt.Sprintf("%s{L=%d H=%d FC=%d heads=%d SL=%d B=%d %s}",
		c.Name, c.Layers, c.Hidden, c.FCDim, c.Heads, c.SeqLen, c.Batch, c.DT)
}

// Scaled returns a copy with H, SL scaled by the given factors — the
// "PALM-3x"-style futuristic models of §4.3.4 are built this way.
func (c Config) Scaled(name string, hScale, slScale float64) Config {
	out := c
	out.Name = name
	out.Hidden = int(float64(c.Hidden) * hScale)
	out.FCDim = int(float64(c.FCDim) * hScale)
	out.SeqLen = int(float64(c.SeqLen) * slScale)
	if c.Heads > 0 {
		out.Heads = int(float64(c.Heads) * hScale)
	}
	return out
}
