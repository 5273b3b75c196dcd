// Package serve is the twocsd analysis service: HTTP handlers that
// answer model+hardware+parallelism study and sweep queries over one
// long-lived core.Analyzer. The daemon exists to amortize what the CLI
// pays per invocation — the baseline profile, the calibrated operator
// model with its projection memo (opmodel.projcache, one per model),
// and the process-wide op-graph and program memos (model.opscache,
// dist.programcache) — across every request of a long-running process:
// model once, query forever. Every one of those memos is bounded, so
// novel shapes cost a daemon a build, not a heap that only grows.
//
// The package is glue with sharp contracts, not new math: requests
// decode strictly (unknown fields are errors), normalize to a canonical
// form, and hash into a bounded LRU result memo; admission is a token
// bucket plus an in-flight cap; every request runs under a deadline
// threaded through the same grid machinery the CLI uses;
// and per-request spans/counters land in the process collector the
// /metrics endpoints already serve.
package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"

	"twocs/internal/core"
	"twocs/internal/hw"
	"twocs/internal/model"
)

// GridSpec selects the design-space slice a request runs over. Every
// field is optional; zero values take the paper's Table 3 defaults.
// Axes are normalized (sorted ascending, deduplicated) before hashing,
// so permuted but equivalent requests share one cache entry.
type GridSpec struct {
	// Hs, SLs, TPs are the hidden-dimension, sequence-length, and
	// tensor-parallel-degree axes (defaults: Table 3).
	Hs  []int `json:"h,omitempty"`
	SLs []int `json:"sl,omitempty"`
	TPs []int `json:"tp,omitempty"`
	// B is the batch size (default 1).
	B int `json:"b,omitempty"`
	// FlopVsBW lists the hardware-evolution scenarios as compute-vs-
	// network scaling ratios (default: the paper's 1, 2, 4).
	FlopVsBW []float64 `json:"flopbw,omitempty"`
	// Model names the zoo baseline the analyzer calibrates from
	// (default: the server's configured model, normally BERT). The grid
	// itself is model-independent — FutureConfig derives each point's
	// architecture from H — but the calibrated operator model and
	// baseline profile the projections stand on are per-model.
	Model string `json:"model,omitempty"`
}

// StudyRequest is the POST /v1/study body: a grid plus the crossover
// target. The response materializes per-scenario comm-fraction points
// and crossover tables, so its grid is bounded tighter than a sweep's.
type StudyRequest struct {
	GridSpec
	// TargetFraction is the comm fraction the crossover tables solve
	// for (default 0.5: communication overtakes computation).
	TargetFraction float64 `json:"target_fraction,omitempty"`
}

// SweepRequest is the POST /v1/sweep body: a grid streamed back as
// NDJSON rows under the stream.Trailer contract.
type SweepRequest struct {
	GridSpec
}

// maxAxisValue bounds each axis entry to something the op-graph builder
// can actually shape; it exists to fail absurd requests fast, not to be
// a tight model-validity check (the analyzer still validates configs).
const maxAxisValue = 1 << 24

func normalizeAxis(name string, vals, def []int) ([]int, error) {
	if len(vals) == 0 {
		return def, nil
	}
	out := slices.Clone(vals)
	slices.Sort(out)
	out = slices.Compact(out)
	for _, v := range out {
		if v <= 0 || v > maxAxisValue {
			return nil, fmt.Errorf("axis %s value %d outside [1, %d]", name, v, maxAxisValue)
		}
	}
	return out, nil
}

// ZooModelNames returns the valid GridSpec.Model values in zoo order —
// the list a rejection names so a typo'd model is a self-correcting 400.
func ZooModelNames() []string {
	zoo := model.Zoo()
	names := make([]string, len(zoo))
	for i, e := range zoo {
		names[i] = e.Config.Name
	}
	return names
}

// normalize applies defaults and canonicalizes the axes in place;
// defModel fills an empty Model before it is validated against the zoo.
func (g *GridSpec) normalize(defModel string) error {
	var err error
	if g.Hs, err = normalizeAxis("h", g.Hs, core.Table3Hs()); err != nil {
		return err
	}
	if g.SLs, err = normalizeAxis("sl", g.SLs, core.Table3SLs()); err != nil {
		return err
	}
	if g.TPs, err = normalizeAxis("tp", g.TPs, core.Table3TPs()); err != nil {
		return err
	}
	if g.B == 0 {
		g.B = 1
	}
	if g.B < 0 || g.B > maxAxisValue {
		return fmt.Errorf("batch %d outside [1, %d]", g.B, maxAxisValue)
	}
	if len(g.FlopVsBW) == 0 {
		g.FlopVsBW = []float64{1, 2, 4}
	}
	ratios := slices.Clone(g.FlopVsBW)
	slices.Sort(ratios)
	ratios = slices.Compact(ratios)
	for _, r := range ratios {
		if !(r >= 1) || r > 1e6 {
			return fmt.Errorf("flopbw ratio %g outside [1, 1e6]", r)
		}
	}
	g.FlopVsBW = ratios
	if g.Model == "" {
		g.Model = defModel
	}
	if _, err := model.LookupZoo(g.Model); err != nil {
		return fmt.Errorf("unknown model %q (valid: %s)", g.Model, strings.Join(ZooModelNames(), ", "))
	}
	return nil
}

// Points returns the grid cardinality upper bound (TP degrees that do
// not divide a configuration are skipped at enumeration, so the actual
// row count can be lower).
func (g GridSpec) Points() int64 {
	return int64(len(g.Hs)) * int64(len(g.SLs)) * int64(len(g.TPs)) * int64(len(g.FlopVsBW))
}

// Evolutions expands the flop-vs-bw ratios into hardware scenarios.
// Ratio 1 maps to the identity scenario ("1x"), matching PaperScenarios
// and the CLI — which is what keeps a daemon-streamed grid
// byte-identical to a locally streamed one.
func (g GridSpec) Evolutions() []hw.Evolution {
	evos := make([]hw.Evolution, len(g.FlopVsBW))
	for i, r := range g.FlopVsBW {
		evos[i] = hw.RatioScenario(r)
	}
	return evos
}

// normalize applies defaults and canonicalizes the request in place.
func (r *StudyRequest) normalize(defModel string) error {
	if err := r.GridSpec.normalize(defModel); err != nil {
		return err
	}
	switch {
	case r.TargetFraction < 0 || r.TargetFraction >= 1:
		return fmt.Errorf("target_fraction %g outside (0,1)", r.TargetFraction)
	case r.TargetFraction > 0:
		// explicitly given, in range
	default:
		r.TargetFraction = 0.5
	}
	return nil
}

// maxBodyBytes bounds the request body of /v1/study and /v1/sweep. The
// largest spec the point limits admit is a sweep of 2²⁴ points over the
// 156 Table-3 tasks: about 107k flop-vs-bw ratios of at most 18
// characters each, some 2 MiB of JSON. A longer body is answered 413
// after reading this much of it, however long it is.
const maxBodyBytes = 4 << 20

// decodeStrict decodes exactly one JSON value from body into dst,
// rejecting unknown fields and trailing garbage — a typo'd axis name
// must be a 400, not a silently defaulted full-grid run.
func decodeStrict(body io.Reader, dst any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("bad request body: trailing data after the JSON object")
	}
	return nil
}
