// Package tensor describes the shapes and number formats of the data that
// flows through a Transformer. It is deliberately free of numeric payload:
// the Comp-vs-Comm analysis only needs sizes, FLOP counts and byte counts,
// never actual values (a tiny numeric reference implementation for
// validating FLOP-count formulas lives in tensor/ref.go).
package tensor

import (
	"fmt"

	"twocs/internal/units"
)

// DType is a number format. The analysis is format-agnostic (paper §6.2)
// but byte volumes and peak-FLOPS selection depend on the element size.
type DType int

// Supported number formats.
const (
	FP32 DType = iota
	FP16
	BF16
	FP8
	FP64
)

// Size returns the element size in bytes.
func (d DType) Size() units.Bytes {
	switch d {
	case FP64:
		return 8
	case FP32:
		return 4
	case FP16, BF16:
		return 2
	case FP8:
		return 1
	default:
		return 4
	}
}

// String names the format as on a datasheet.
func (d DType) String() string {
	switch d {
	case FP64:
		return "FP64"
	case FP32:
		return "FP32"
	case FP16:
		return "FP16"
	case BF16:
		return "BF16"
	case FP8:
		return "FP8"
	default:
		return fmt.Sprintf("DType(%d)", int(d))
	}
}

// Shape is a dense tensor shape. Dimension order is row-major and carries
// no semantics beyond sizing.
type Shape []int

// Valid reports whether every dimension is positive.
func (s Shape) Valid() bool {
	if len(s) == 0 {
		return false
	}
	for _, d := range s {
		if d <= 0 {
			return false
		}
	}
	return true
}

// Elems returns the number of elements, as float64 to permit shapes whose
// product exceeds int64 in extreme sweeps.
func (s Shape) Elems() float64 {
	if len(s) == 0 {
		return 0
	}
	n := 1.0
	for _, d := range s {
		n *= float64(d)
	}
	return n
}

// Bytes returns the storage footprint of the shape in format d.
func (s Shape) Bytes(d DType) units.Bytes {
	return units.Bytes(s.Elems() * float64(d.Size()))
}

// String renders e.g. "[4096 512 1024]".
func (s Shape) String() string { return fmt.Sprint([]int(s)) }

// MatMul describes a GEMM C[M,N] = A[M,K] × B[K,N] in format DT.
// Transformer sub-layers lower to batches of these (paper Fig 4); the
// analysis treats a batched GEMM as a single MatMul with M folded.
type MatMul struct {
	M, N, K int
	DT      DType
}

// Valid reports whether all dimensions are positive.
func (m MatMul) Valid() bool { return m.M > 0 && m.N > 0 && m.K > 0 }

// FLOPs returns 2*M*N*K, counting each multiply and each add — the cost
// convention used by the paper's Equations 1-3.
func (m MatMul) FLOPs() units.FLOPs {
	return units.FLOPs(2 * float64(m.M) * float64(m.N) * float64(m.K))
}

// String renders e.g. "GEMM[M=4096,N=1024,K=1024,FP16]".
func (m MatMul) String() string {
	return fmt.Sprintf("GEMM[M=%d,N=%d,K=%d,%s]", m.M, m.N, m.K, m.DT)
}
