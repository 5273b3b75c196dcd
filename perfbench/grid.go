package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"twocs/internal/core"
	"twocs/internal/hw"
	"twocs/internal/stream"
)

// gridSpec is a design-space grid: the Table-3 H, SL and TP axes at
// B=1 under n flop-vs-bw scenarios evenly spaced from 1 to 4, built the
// way `twocs sweep-stream -scenarios n` builds them.
type gridSpec struct {
	ratios []float64
	evos   []hw.Evolution
}

func newGrid(n int) gridSpec {
	g := gridSpec{ratios: make([]float64, n), evos: make([]hw.Evolution, n)}
	for i := range g.ratios {
		g.ratios[i] = 1 + 3*float64(i)/float64(n-1)
		g.evos[i] = hw.RatioScenario(g.ratios[i])
	}
	return g
}

// table3Points counts the runnable Table-3 (H, SL, TP) points: those
// whose TP divides the head count H/64 and the feed-forward width 4H.
// It is computed here from the axes, independently of the enumerator
// under test.
func table3Points() int64 {
	var n int64
	for _, h := range core.Table3Hs() {
		n += int64(len(core.Table3SLs())) * int64(runnableTPs(h))
	}
	return n
}

// runnableTPs counts the Table-3 TP degrees that divide hidden size h
// under the future-Transformer shape (H/64 heads, FC = 4H).
func runnableTPs(h int) int {
	n := 0
	for _, tp := range core.Table3TPs() {
		if (h/64)%tp == 0 && (4*h)%tp == 0 {
			n++
		}
	}
	return n
}

// rows is the number of rows the grid streams.
func (g gridSpec) rows() int64 { return int64(len(g.evos)) * table3Points() }

// stream runs the grid through the library's streaming entry point.
func (g gridSpec) stream(ctx context.Context, a *core.Analyzer, sink stream.Sink) error {
	return a.StreamEvolutionGridCtx(ctx, core.Table3Hs(), core.Table3SLs(), core.Table3TPs(), 1, g.evos, sink)
}

// digest hashes rows field by field, exactly (floats by their bits).
func digest(rows []stream.Row) string {
	h := sha256.New()
	for _, r := range rows {
		fmt.Fprintf(h, "%d|%s|%x|%d|%d|%d|%d|%x|%x|%x\n", r.Index, r.Evo, r.FlopVsBW, r.H, r.SL, r.B, r.TP,
			float64(r.IterTime), r.CommFrac, float64(r.MemBytes))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// jsonDigest hashes v's JSON encoding.
func jsonDigest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:]), nil
}
