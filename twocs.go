// Package twocs is the public API of the Tale-of-Two-Cs reproduction: a
// library for analyzing how computation and communication scale relative
// to one another for (future) Transformer models on (future) hardware,
// after Pati et al., "Computation vs. Communication Scaling for Future
// Transformers on Future Hardware" (IISWC 2023).
//
// The typical flow mirrors the paper:
//
//	a, err := twocs.NewAnalyzer()              // profile a BERT baseline on an MI210-class node
//	cfg, _ := twocs.FutureConfig(65536, 4096, 1) // a futuristic Transformer (H=64K, SL=4K, B=1)
//	p, _ := a.SerializedFraction(cfg, 256, twocs.FlopVsBW(4))
//	fmt.Println(p.CommFraction())              // serialized comm share of training time
//
// The facade re-exports the load-bearing types from the internal
// packages; specialized functionality (custom kernels, collective
// algorithms, the discrete-event simulator) lives under internal/ and is
// exercised through the Analyzer.
package twocs

import (
	"io"

	"twocs/internal/core"
	"twocs/internal/dist"
	"twocs/internal/hw"
	"twocs/internal/model"
	"twocs/internal/opmodel"
	"twocs/internal/stream"
)

// Core analysis types.
type (
	// Analyzer bundles the profiled baseline and the operator-level
	// model; it is the entry point for every empirical analysis. Its
	// grid studies fan out over Analyzer.Workers goroutines (0 = all
	// CPUs, 1 = sequential) with results identical at any worker count.
	Analyzer = core.Analyzer
	// Config is a Transformer architecture plus training input shape.
	Config = model.Config
	// ZooEntry is one published model from the paper's Table 2.
	ZooEntry = model.ZooEntry
	// Evolution is a hardware-evolution scenario (flop-vs-bw scaling).
	Evolution = hw.Evolution
	// Cluster describes the accelerator system under analysis.
	Cluster = hw.Cluster
	// IterationProjection is a projected compute/serialized-comm split.
	IterationProjection = opmodel.IterationProjection
	// MoEProjection extends a projection with expert-parallel
	// all-to-all communication (§6.1.1).
	MoEProjection = core.MoEProjection
	// CaseResult is one Figure 14 case-study scenario outcome.
	CaseResult = core.CaseResult
	// CaseScenario configures one case-study scenario.
	CaseScenario = core.CaseScenario
	// TPEstimate is one Figure 9b required-TP row.
	TPEstimate = dist.TPEstimate
	// AlgRow is one Figure 7 algorithmic-scaling row.
	AlgRow = core.AlgRow
)

// Streaming sweep types. Analyzer.StreamEvolutionGridCtx (and its
// best-effort twin StreamEvolutionGridPartialCtx) push one Row per grid
// point, in grid order at any worker count, into a Sink — peak memory
// stays bounded at any grid size, which is what makes 10⁶-10⁷-point
// design-space searches practical. See the stream package docs for the
// ordering and trailer contracts.
type (
	// Row is one streamed grid point: coordinates plus the three
	// search objectives (iteration time, comm fraction, memory).
	Row = stream.Row
	// Trailer summarizes a finished (or interrupted) stream.
	Trailer = stream.Trailer
	// Sink consumes rows; NewNDJSON, NewCSV, NewTopK, NewPareto, and
	// NewMarginals are the provided implementations.
	Sink = stream.Sink
	// TopK keeps the K best rows by iteration time.
	TopK = stream.TopK
	// Pareto keeps the (iter time, comm fraction, memory) frontier.
	Pareto = stream.Pareto
	// Marginals keeps per-axis comm-fraction aggregates.
	Marginals = stream.Marginals
)

// NewNDJSON streams rows as newline-delimited JSON.
func NewNDJSON(w io.Writer) Sink { return stream.NewNDJSON(w) }

// NewCSV streams rows as RFC-4180 CSV with a comment trailer.
func NewCSV(w io.Writer) Sink { return stream.NewCSV(w) }

// NewTopK keeps the k fastest configurations seen.
func NewTopK(k int) (*TopK, error) { return stream.NewTopK(k) }

// NewPareto keeps the 3-objective Pareto frontier.
func NewPareto() *Pareto { return stream.NewPareto() }

// NewMarginals aggregates comm fraction per axis value.
func NewMarginals() *Marginals { return stream.NewMarginals() }

// MultiSink fans each row out to every sink in order.
func MultiSink(sinks ...Sink) Sink { return stream.Multi(sinks...) }

// NewAnalyzer builds the paper's standard setup: a BERT baseline profiled
// at TP=4 on a 4×MI210 node (§4.3.1).
func NewAnalyzer() (*Analyzer, error) {
	e, err := model.LookupZoo("BERT")
	if err != nil {
		return nil, err
	}
	return core.NewAnalyzer(hw.MI210Cluster(1, 0), e.Config, 4)
}

// NewAnalyzerOn builds an analyzer with a custom cluster and baseline.
func NewAnalyzerOn(cluster Cluster, baseline Config, baseTP int) (*Analyzer, error) {
	return core.NewAnalyzer(cluster, baseline, baseTP)
}

// MI210Cluster returns the paper's evaluation system scaled to numNodes
// nodes; interNodeBWFraction sets inter-node bandwidth relative to the
// intra-node ring (the paper's discussion uses ~1/8).
func MI210Cluster(numNodes int, interNodeBWFraction float64) Cluster {
	return hw.MI210Cluster(numNodes, interNodeBWFraction)
}

// Zoo returns the paper's Table 2 models.
func Zoo() []ZooEntry { return model.Zoo() }

// LookupZoo finds a Table 2 model by name.
func LookupZoo(name string) (ZooEntry, error) { return model.LookupZoo(name) }

// FutureModels returns the projected models of §4.3.4 (T-NLG-1x through
// PaLM-3x).
func FutureModels() []ZooEntry { return model.FutureModels() }

// FutureConfig builds a proportional future-Transformer configuration
// for a sweep point (FC=4H, head dim 64, FP32).
func FutureConfig(h, sl, b int) (Config, error) { return core.FutureConfig(h, sl, b) }

// Today is today's hardware (no evolution).
func Today() Evolution { return hw.Identity() }

// FlopVsBW is the paper's hardware-evolution scenario: compute scales
// `ratio`× faster than network bandwidth (§4.3.6 derives 2-4× from
// 2018-2020 GPU generations).
func FlopVsBW(ratio float64) Evolution { return hw.FlopVsBWScenario(ratio) }

// Fig14Scenarios returns the three end-to-end case-study scenarios.
func Fig14Scenarios() []CaseScenario { return core.PaperScenariosFig14() }

// EstimateRequiredTP applies the §4.3.2 estimator (base_TP · p/s) to the
// given models.
func EstimateRequiredTP(entries []ZooEntry) ([]TPEstimate, error) {
	return dist.EstimateRequiredTP(entries)
}

// AlgorithmicScaling computes the Figure 7 slack/edge series.
func AlgorithmicScaling(entries []ZooEntry) ([]AlgRow, error) {
	return core.AlgorithmicScaling(entries)
}

// SlackAdvantage is compute's algorithmic slack to hide overlapped
// communication, O(SL·B) (Eq 9).
func SlackAdvantage(c Config) float64 { return core.SlackAdvantage(c) }

// EdgeComplexity is compute's Amdahl's-law edge over serialized
// communication, O((H+SL)/TP) (Eq 6).
func EdgeComplexity(c Config, tp int) (float64, error) { return core.EdgeComplexity(c, tp) }

// OperatorModel is a calibrated operator-level model — the projection
// engine inside an Analyzer (accessible as Analyzer.OpModel). Calibrated
// models serialize with Save and reload with LoadCalibration, so one
// profiling run can be shipped and reused.
type OperatorModel = opmodel.Model

// LoadCalibration reconstructs an operator model saved with
// (*OperatorModel).Save.
func LoadCalibration(r io.Reader) (*OperatorModel, error) { return opmodel.Load(r) }
