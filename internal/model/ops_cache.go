package model

import "twocs/internal/memo"

// The grid sweeps evaluate the same layer operator graphs over and over:
// a Figure 12/13 evolution grid visits each (H, SL, B, TP) shape once
// per hardware scenario, and every benchmark iteration revisits the full
// grid. The graph depends only on the configuration's shape — not its
// name, layer count, or the hardware it runs on — so the sweep engine
// shares one immutable copy per shape instead of rebuilding ~36
// operator descriptors per grid point.

// opsKey identifies a layer operator graph: the Config fields LayerOps
// actually reads, plus the TP degree. Name, Layers and Vocab are
// normalized away so differently-named configurations with the same
// shape (every sweep point, every zoo stand-in) share an entry.
type opsKey struct {
	shape Config
	tp    int
	phase Phase // Forward for forward-only graphs, Backward for full
}

// Shape returns the configuration with the identity fields LayerOps
// never reads (Name, Layers, Vocab) normalized away — the equivalence
// key under which layer operator graphs, and the projections derived
// from them (opmodel), are shared.
func Shape(c Config) Config {
	c.Name = ""
	c.Layers = 1
	c.Vocab = 0
	return c
}

// opsMemoEntries bounds the op-graph memo. A Table-3 grid touches 157
// shapes and perfbench's study workload about 310 with its audit; the
// bound sits well above both, and caps what a daemon fed novel shapes
// keeps.
const opsMemoEntries = 1024

var opsMemo = memo.New[opsKey, []OpDesc]("model.opscache", nil, opsMemoEntries, 0, nil)

func cachedOps(c Config, tp int, phase Phase, build func(Config, int) ([]OpDesc, error)) ([]OpDesc, error) {
	// Validate per call (cheap, allocation-free) so invalid
	// configurations never consult or populate the memo.
	if err := c.ValidateTP(tp); err != nil {
		return nil, err
	}
	return opsMemo.Do(opsKey{shape: Shape(c), tp: tp, phase: phase}, func() ([]OpDesc, error) {
		return build(c, tp)
	})
}

// CachedLayerOps is LayerOps behind a process-wide bounded memo keyed
// by configuration shape and TP degree. The returned slice is shared:
// callers must treat it as read-only. Safe for concurrent use.
func CachedLayerOps(c Config, tp int) ([]OpDesc, error) {
	return cachedOps(c, tp, Backward, LayerOps)
}

// CachedLayerForwardOps is the memoized LayerForwardOps (same sharing
// contract as CachedLayerOps).
func CachedLayerForwardOps(c Config, tp int) ([]OpDesc, error) {
	return cachedOps(c, tp, Forward, LayerForwardOps)
}

// CachedLayerBackwardOps returns the backward suffix of the memoized
// full-layer graph (same sharing contract as CachedLayerOps). It slices
// the CachedLayerOps entry rather than keeping a third cache, since
// LayerOps is forward followed by backward.
func CachedLayerBackwardOps(c Config, tp int) ([]OpDesc, error) {
	ops, err := CachedLayerOps(c, tp)
	if err != nil {
		return nil, err
	}
	for i, op := range ops {
		if op.Phase == Backward {
			return ops[i:], nil
		}
	}
	return nil, nil
}
