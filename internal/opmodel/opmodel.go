// Package opmodel implements the paper's central methodological
// contribution (§4.2.2 step 2b): operator-level models that project the
// runtime of every operator of a Transformer training iteration from a
// single profiled baseline, using the scaling laws the algorithmic
// analysis identified — GEMM time linear in each matrix dimension (hence
// linear in SL, quadratic in H), normalization/elementwise time linear in
// element count, all-reduce time linear in bytes with the known ring
// step-count factor.
//
// Projections from one baseline deliberately ignore the hardware
// non-idealities the kernel substrate models (per-size kernel selection,
// wave quantization, bandwidth ramps). The gap between projection and
// ground truth is therefore a real, measurable model error — the ~7-15%
// the paper reports in Figure 15 — not an artifact of comparing a model
// with itself.
package opmodel

import (
	"fmt"

	"twocs/internal/hw"
	"twocs/internal/memo"
	"twocs/internal/model"
	"twocs/internal/profile"
	"twocs/internal/stats"
	"twocs/internal/tensor"
	"twocs/internal/units"
)

// ARReference is a calibration measurement of one all-reduce: the paper
// profiles collectives separately from the single-GPU baseline iteration
// (Fig 15c sweeps reduced data size).
type ARReference struct {
	Bytes units.Bytes
	// Group is the rank count of the measured collective.
	Group int
	Time  units.Seconds
}

// Valid reports whether the reference is usable.
func (r ARReference) Valid() bool { return r.Bytes > 0 && r.Group >= 2 && r.Time > 0 }

// Model is a calibrated operator-level model. A calibrated Model is
// immutable and safe for concurrent use: the parallel sweep engine
// projects many grid points through one Model at once.
type Model struct {
	base    model.Config
	baseTP  int
	records map[string]profile.Record

	// arFit is the affine time-vs-bytes fit (paper Fig 15c) at group
	// size arGroup; hasAR reports whether any collective calibration
	// exists.
	arFit   stats.Affine
	arGroup int
	hasAR   bool

	// latencyAwareAR selects the two-term group-size extrapolation for
	// collectives (see WithLatencyAwareAR).
	latencyAwareAR bool

	// proj memoizes per-layer projections by (shape, tp, phase). A
	// hardware scenario only rescales the layer sums
	// (LayerProjection.Scale) — the per-operator projection is
	// scenario-independent — so the serialized grids look each shape up
	// once per grid call and rescale it for every scenario, and the memo
	// dedups those lookups across calls, requests and single-point
	// projections. Calibration finishes before first use.
	proj *memo.Memo[projKey, LayerProjection]
}

// projMemoEntries bounds each model's projection memo: a Table-3 grid
// projects 156 shapes and perfbench's study workload about 310 with its
// audit, so 1024 holds every workload's working set while capping what
// a daemon fed novel shapes keeps.
const projMemoEntries = 1024

func newProjMemo() *memo.Memo[projKey, LayerProjection] {
	return memo.New[projKey, LayerProjection]("opmodel.projcache", nil, projMemoEntries, 0, nil)
}

// projKey identifies one memoized layer projection: the shape fields
// the layer operator graph reads (model.Shape's survivors), flattened
// into a string-free struct so the memo's map hashes it with plain
// memhash instead of the string-walking fallback — the difference is
// the bulk of a hit's cost on the grid hot path.
// TestProjKeyCoversConfig pins this field set against model.Config.
type projKey struct {
	kind          model.LayerKind
	hidden, fc    int
	heads         int
	seqLen, batch int
	dt            tensor.DType
	fused         bool
	tp            int
	phase         model.Phase
}

func newProjKey(c model.Config, tp int, phase model.Phase) projKey {
	return projKey{
		kind:   c.Kind,
		hidden: c.Hidden,
		fc:     c.FCDim,
		heads:  c.Heads,
		seqLen: c.SeqLen,
		batch:  c.Batch,
		dt:     c.DT,
		fused:  c.FusedAttention,
		tp:     tp,
		phase:  phase,
	}
}

// Option configures calibration.
type Option func(*Model) error

// WithARReference supplies a single collective calibration point, from
// which a proportional (zero-intercept) fit is derived. Required when the
// baseline profile was taken at TP=1 (no all-reduces to observe).
func WithARReference(ref ARReference) Option {
	return func(m *Model) error {
		if !ref.Valid() {
			return fmt.Errorf("opmodel: invalid all-reduce reference %+v", ref)
		}
		m.arFit = stats.Affine{Slope: float64(ref.Time) / float64(ref.Bytes)}
		m.arGroup = ref.Group
		m.hasAR = true
		return nil
	}
}

// WithARSweep supplies a measured time-vs-size sweep at one group size
// and fits it affinely — the paper's Figure 15c collective model. The
// intercept absorbs per-step latencies; the slope is the sustained
// inverse bus bandwidth.
func WithARSweep(refs []ARReference) Option {
	return func(m *Model) error {
		if len(refs) < 2 {
			return fmt.Errorf("opmodel: all-reduce sweep needs >=2 points, got %d", len(refs))
		}
		xs := make([]float64, len(refs))
		ys := make([]float64, len(refs))
		group := refs[0].Group
		for i, r := range refs {
			if !r.Valid() {
				return fmt.Errorf("opmodel: invalid all-reduce point %+v", r)
			}
			if r.Group != group {
				return fmt.Errorf("opmodel: mixed group sizes %d and %d in sweep", group, r.Group)
			}
			xs[i] = float64(r.Bytes)
			ys[i] = float64(r.Time)
		}
		fit, err := stats.FitAffine(xs, ys)
		if err != nil {
			return err
		}
		if fit.Slope <= 0 {
			return fmt.Errorf("opmodel: all-reduce sweep fit has non-positive slope %v", fit.Slope)
		}
		m.arFit = fit
		m.arGroup = group
		m.hasAR = true
		return nil
	}
}

// Calibrate builds an operator-level model from one baseline profile.
func Calibrate(p *profile.Profile, opts ...Option) (*Model, error) {
	if p == nil || len(p.Records) == 0 {
		return nil, fmt.Errorf("opmodel: empty baseline profile")
	}
	if err := p.Model.ValidateTP(p.TP); err != nil {
		return nil, err
	}
	m := &Model{
		base:    p.Model,
		baseTP:  p.TP,
		records: make(map[string]profile.Record, len(p.Records)),
		proj:    newProjMemo(),
	}
	for _, r := range p.Records {
		if r.Time <= 0 {
			return nil, fmt.Errorf("opmodel: baseline op %s has non-positive time %v", r.Op.Name, r.Time)
		}
		m.records[r.Op.Name] = r
	}
	for _, o := range opts {
		if err := o(m); err != nil {
			return nil, err
		}
	}
	if !m.hasAR {
		// Derive a proportional fit from the baseline's own serialized
		// all-reduces when present.
		for _, r := range p.Records {
			if r.Op.Kind == model.TPAllReduce && r.Op.Bytes > 0 && p.TP >= 2 {
				m.arFit = stats.Affine{Slope: float64(r.Time) / float64(r.Op.Bytes)}
				m.arGroup = p.TP
				m.hasAR = true
				break
			}
		}
	}
	return m, nil
}

// Base returns the baseline configuration the model was calibrated on.
func (m *Model) Base() (model.Config, int) { return m.base, m.baseTP }

// busFactor is the ring all-reduce traffic factor 2(N-1)/N — the one
// piece of algorithmic knowledge the collective projection keeps.
func busFactor(n int) float64 {
	if n < 2 {
		return 0
	}
	return 2 * float64(n-1) / float64(n)
}

// WithLatencyAwareAR switches collective projection to a two-term form:
// the affine fit's intercept (the per-step latencies of the calibration
// group) extrapolates with the ring's step count (n-1), while the slope
// term extrapolates with the bandwidth factor 2(n-1)/n. The paper's
// simple linear model scales both by the bandwidth factor, which
// under-charges latency at large TP degrees; this option is the
// refinement the Fig 15c error analysis points toward, quantified by
// BenchmarkAblationLatencyAwareAR.
func WithLatencyAwareAR() Option {
	return func(m *Model) error {
		m.latencyAwareAR = true
		return nil
	}
}

// ProjectAllReduce projects an all-reduce of the given size across n
// ranks by linear scaling from the calibration point (Fig 15c's model),
// or by the two-term form when WithLatencyAwareAR was set.
func (m *Model) ProjectAllReduce(bytes units.Bytes, n int) (units.Seconds, error) {
	if !m.hasAR {
		return 0, fmt.Errorf("opmodel: no all-reduce calibration available (baseline TP=1; supply WithARReference)")
	}
	if bytes < 0 || n < 1 {
		return 0, fmt.Errorf("opmodel: invalid all-reduce bytes=%v n=%d", bytes, n)
	}
	if n == 1 || bytes == 0 {
		return 0, nil
	}
	var t float64
	if m.latencyAwareAR && m.arGroup >= 2 {
		latency := m.arFit.Intercept * float64(n-1) / float64(m.arGroup-1)
		data := m.arFit.Slope * float64(bytes) * busFactor(n) / busFactor(m.arGroup)
		t = latency + data
	} else {
		t = m.arFit.Eval(float64(bytes)) * busFactor(n) / busFactor(m.arGroup)
	}
	if t < 0 {
		t = 0 // a negative intercept can undershoot at tiny sizes
	}
	return units.Seconds(t), nil
}

// ProjectOp projects the runtime of one target operator. The target op
// must correspond by name to a baseline operator (the operator sequence
// of a Transformer layer is architecture-invariant), except collectives,
// which project from the AR reference.
func (m *Model) ProjectOp(op model.OpDesc, tp int) (units.Seconds, error) {
	if op.Kind.IsComm() {
		group := tp
		return m.ProjectAllReduce(op.Bytes, group)
	}
	base, ok := m.records[op.Name]
	if !ok {
		return 0, fmt.Errorf("opmodel: no baseline measurement for operator %q", op.Name)
	}
	var scale float64
	switch op.Kind {
	case model.GEMM:
		// Linear in each of M, N, K (paper Fig 15a): runtime scales by
		// the FLOP ratio.
		bf := float64(base.Op.GEMM.FLOPs())
		if bf <= 0 {
			return 0, fmt.Errorf("opmodel: baseline %q has zero GEMM work", op.Name)
		}
		scale = float64(op.GEMM.FLOPs()) / bf
	case model.LayerNorm, model.Softmax:
		// Linear in rows and width (paper Fig 15b).
		be := float64(base.Op.Rows) * float64(base.Op.Width)
		if be <= 0 {
			return 0, fmt.Errorf("opmodel: baseline %q has zero extent", op.Name)
		}
		scale = float64(op.Rows) * float64(op.Width) / be
	case model.Elementwise:
		if base.Op.Elems <= 0 {
			return 0, fmt.Errorf("opmodel: baseline %q has zero elements", op.Name)
		}
		scale = op.Elems / base.Op.Elems
	case model.FusedAttn:
		// Attention-core work is batchHeads·seq²·headDim.
		bw := float64(base.Op.Rows) * float64(base.Op.Width) * float64(base.Op.Width) * float64(base.Op.HeadDim)
		if bw <= 0 {
			return 0, fmt.Errorf("opmodel: baseline %q has zero attention extent", op.Name)
		}
		scale = float64(op.Rows) * float64(op.Width) * float64(op.Width) * float64(op.HeadDim) / bw
	default:
		return 0, fmt.Errorf("opmodel: cannot project op kind %v", op.Kind)
	}
	return units.Seconds(float64(base.Time) * scale), nil
}

// LayerProjection is the projected per-layer iteration breakdown.
type LayerProjection struct {
	Compute        units.Seconds
	SerializedComm units.Seconds
}

// Scale projects layers such layers onto hardware evolved by evo:
// compute accelerates by FlopScale while communication accelerates only
// by NetScale (§4.3.6). evo must be valid. It is the one float formula
// behind every whole-model projection, so a grid that prices a shape
// once and rescales it per scenario gets ProjectIteration's bits.
//
//lint:hotpath
func (lp LayerProjection) Scale(layers float64, evo hw.Evolution) (compute, comm units.Seconds) {
	return units.Seconds(float64(lp.Compute) * layers / evo.FlopScale),
		units.Seconds(float64(lp.SerializedComm) * layers / evo.NetScale)
}

// ProjectLayer projects every operator of one target layer's iteration
// and sums compute vs serialized communication. The operator graph comes
// from the process-wide memo (model.CachedLayerOps), so repeated
// projections of one shape — across hardware-evolution scenarios, sweep
// repetitions, worker goroutines — share a single graph construction.
func (m *Model) ProjectLayer(target model.Config, tp int) (LayerProjection, error) {
	return m.cachedProjection(target, tp, model.Backward, model.CachedLayerOps)
}

// ProjectLayerForward projects only the forward pass — the inference
// analysis of §6.3 (one forward, two serialized all-reduces per layer).
func (m *Model) ProjectLayerForward(target model.Config, tp int) (LayerProjection, error) {
	return m.cachedProjection(target, tp, model.Forward, model.CachedLayerForwardOps)
}

// cachedProjection is the shape-keyed memo in front of projectOps. The
// configuration is validated per call (cheap, allocation-free on the
// success path) so invalid shapes never consult or populate the memo;
// a hit then costs one locked map lookup and zero projections. Only
// successful projections are kept; failures (e.g. a missing baseline
// operator) recompute and re-fail.
func (m *Model) cachedProjection(target model.Config, tp int, phase model.Phase,
	fetch func(model.Config, int) ([]model.OpDesc, error)) (LayerProjection, error) {
	if err := target.ValidateTP(tp); err != nil {
		return LayerProjection{}, err
	}
	return m.proj.Do(newProjKey(target, tp, phase), func() (LayerProjection, error) {
		ops, err := fetch(target, tp)
		if err != nil {
			return LayerProjection{}, err
		}
		return m.projectOps(ops, tp)
	})
}

func (m *Model) projectOps(ops []model.OpDesc, tp int) (LayerProjection, error) {
	var out LayerProjection
	for _, op := range ops {
		d, err := m.ProjectOp(op, tp)
		if err != nil {
			return LayerProjection{}, err
		}
		if op.Kind == model.TPAllReduce {
			out.SerializedComm += d
		} else {
			out.Compute += d
		}
	}
	return out, nil
}

// IterationProjection is a whole-model projection under a hardware
// scenario.
type IterationProjection struct {
	Target model.Config
	TP     int
	Evo    hw.Evolution

	Compute        units.Seconds
	SerializedComm units.Seconds
}

// Total returns compute plus serialized communication (serialized comm is
// on the critical path by construction, Fig 3b).
func (p IterationProjection) Total() units.Seconds { return p.Compute + p.SerializedComm }

// CommFraction is the paper's Figure 10/12 metric: serialized
// communication as a fraction of total iteration time.
func (p IterationProjection) CommFraction() float64 {
	return units.Ratio(float64(p.SerializedComm), float64(p.Total()))
}

// ProjectIteration projects the full-model iteration (all layers) under a
// hardware-evolution scenario: compute accelerates by FlopScale while
// communication accelerates only by NetScale (§4.3.6).
func (m *Model) ProjectIteration(target model.Config, tp int, evo hw.Evolution) (IterationProjection, error) {
	if err := evo.Validate(); err != nil {
		return IterationProjection{}, err
	}
	lp, err := m.ProjectLayer(target, tp)
	if err != nil {
		return IterationProjection{}, err
	}
	compute, comm := lp.Scale(float64(target.Layers), evo)
	return IterationProjection{
		Target:         target,
		TP:             tp,
		Evo:            evo,
		Compute:        compute,
		SerializedComm: comm,
	}, nil
}
