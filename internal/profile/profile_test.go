package profile

import (
	"errors"
	"math"
	"sort"
	"testing"

	"twocs/internal/collective"
	"twocs/internal/dist"
	"twocs/internal/hw"
	"twocs/internal/kernels"
	"twocs/internal/model"
	"twocs/internal/units"
)

func bert() model.Config {
	e, _ := model.LookupZoo("BERT")
	c := e.Config
	c.Layers = 4 // keep tests quick; cost scales by layer count anyway
	return c
}

func newTimer(t *testing.T, tp, dp int) *dist.Timer {
	t.Helper()
	nodes := (tp*dp + 3) / 4
	p := dist.Plan{
		Model: bert(), TP: tp, DP: dp,
		Cluster: hw.MI210Cluster(nodes, 1.0/8),
		Algo:    collective.Ring,
	}
	calc, err := kernels.NewCalculator(hw.MI210)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := dist.NewTimer(p, calc)
	if err != nil {
		t.Fatal(err)
	}
	return tm
}

func TestIterationProfile(t *testing.T) {
	tm := newTimer(t, 4, 2)
	p, err := Iteration(bert(), 4, tm)
	if err != nil {
		t.Fatal(err)
	}
	ops, _ := model.LayerOps(bert(), 4)
	if len(p.Records) != len(ops) {
		t.Fatalf("%d records, want %d", len(p.Records), len(ops))
	}
	for _, r := range p.Records {
		if r.Time <= 0 {
			t.Errorf("%s has non-positive time", r.Op.Name)
		}
	}
	comp, comm := p.LayerTime()
	if comp <= 0 || comm <= 0 {
		t.Errorf("layer time split = %v, %v", comp, comm)
	}
	var perLayer units.Seconds
	for _, r := range p.Records {
		perLayer += r.Time
	}
	want := float64(perLayer) * float64(bert().Layers)
	if math.Abs(float64(p.Cost)-want) > 1e-12*want {
		t.Errorf("cost = %v, want per-layer × layers = %v", p.Cost, units.Seconds(want))
	}
}

func TestProfileLookup(t *testing.T) {
	tm := newTimer(t, 4, 2)
	p, err := Iteration(bert(), 4, tm)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Lookup("fwd.attn.qkv"); !ok {
		t.Error("qkv record missing")
	}
	if _, ok := p.Lookup("no.such.op"); ok {
		t.Error("phantom record found")
	}
}

type failingTimer struct{ err error }

func (f failingTimer) Time(model.OpDesc) (units.Seconds, error) { return 0, f.err }

func TestIterationPropagatesTimerErrors(t *testing.T) {
	sentinel := errors.New("boom")
	_, err := Iteration(bert(), 4, failingTimer{sentinel})
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v, want wrapped sentinel", err)
	}
}

func TestOverlappedROI(t *testing.T) {
	tm := newTimer(t, 4, 2)
	roi, err := OverlappedROI(bert(), 4, tm)
	if err != nil {
		t.Fatal(err)
	}
	if roi.ComputeTime <= 0 || roi.CommTime <= 0 {
		t.Fatalf("ROI = %+v", roi)
	}
	if roi.Cost != roi.ComputeTime+roi.CommTime {
		t.Error("ROI cost must equal executed time")
	}
	if pct := roi.OverlapPercent(); pct <= 0 {
		t.Errorf("overlap pct = %v", pct)
	}
}

func TestROISlackGrowsWithBatch(t *testing.T) {
	// Paper Eq 9: slack = O(SL·B); the overlap percentage must fall as
	// batch (and thus compute) grows while comm stays fixed.
	tm := newTimer(t, 4, 2)
	small := bert()
	small.Batch = 1
	large := bert()
	large.Batch = 16
	rs, err := OverlappedROI(small, 4, tm)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := OverlappedROI(large, 4, tm)
	if err != nil {
		t.Fatal(err)
	}
	if rl.OverlapPercent() >= rs.OverlapPercent() {
		t.Errorf("overlap%% should fall with batch: B=1 %.1f%%, B=16 %.1f%%",
			rs.OverlapPercent(), rl.OverlapPercent())
	}
	if rs.CommTime != rl.CommTime {
		t.Error("weight-gradient comm must be batch-independent")
	}
}

func TestROIAvoidsForwardCost(t *testing.T) {
	// The §4.3.8 1.5× claim: ROI extraction skips the forward pass.
	tm := newTimer(t, 4, 2)
	p, err := Iteration(bert(), 4, tm)
	if err != nil {
		t.Fatal(err)
	}
	roi, err := OverlappedROI(bert(), 4, tm)
	if err != nil {
		t.Fatal(err)
	}
	perLayerFull := float64(p.Cost) / float64(bert().Layers)
	if float64(roi.Cost) >= perLayerFull {
		t.Errorf("ROI cost %v should be well below a full layer iteration %v",
			roi.Cost, units.Seconds(perLayerFull))
	}
}

func TestLedger(t *testing.T) {
	l := NewLedger()
	if err := l.Add("a", 2); err != nil {
		t.Fatal(err)
	}
	if err := l.Add("b", 4); err != nil {
		t.Fatal(err)
	}
	if err := l.Add("a", 1); err != nil {
		t.Fatal(err)
	}
	if l.Total() != 7 {
		t.Errorf("total = %v", l.Total())
	}
	items := l.Items()
	if len(items) != 2 || items[0].Name != "a" || items[0].Cost != 3 {
		t.Errorf("items = %v", items)
	}
	top := l.TopItems(1)
	if len(top) != 1 || top[0].Name != "b" {
		t.Errorf("top = %v", top)
	}
	if err := l.Add("x", -1); err == nil {
		t.Error("negative cost accepted")
	}
}

func TestCompareStrategy(t *testing.T) {
	ex := NewLedger()
	st := NewLedger()
	if _, err := CompareStrategy(ex, st); err == nil {
		t.Error("empty strategy ledger accepted")
	}
	if err := ex.Add("sweep", 2100); err != nil {
		t.Fatal(err)
	}
	if err := st.Add("baseline", 1); err != nil {
		t.Fatal(err)
	}
	rep, err := CompareStrategy(ex, st)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Speedup != 2100 {
		t.Errorf("speedup = %v", rep.Speedup)
	}
}

// LineItem is one named cost entry of a Ledger.
type LineItem struct {
	Name string
	Cost units.Seconds
}

// Items returns the ledger's line items sorted by name.
func (l *Ledger) Items() []LineItem {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]LineItem, 0, len(l.entries))
	for n, c := range l.entries {
		out = append(out, LineItem{Name: n, Cost: c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// TopItems returns the k most expensive line items, descending, with
// ties broken by name so the order is deterministic.
func (l *Ledger) TopItems(k int) []LineItem {
	items := l.Items()
	sort.Slice(items, func(i, j int) bool {
		if items[i].Cost > items[j].Cost {
			return true
		}
		if items[i].Cost < items[j].Cost {
			return false
		}
		return items[i].Name < items[j].Name
	})
	if k < len(items) {
		items = items[:k]
	}
	return items
}

// LayerTime sums the per-layer operator times, split into compute and
// serialized communication.
func (p *Profile) LayerTime() (compute, serializedComm units.Seconds) {
	for _, r := range p.Records {
		if r.Op.Kind == model.TPAllReduce {
			serializedComm += r.Time
		} else if !r.Op.Kind.IsComm() {
			compute += r.Time
		}
	}
	return compute, serializedComm
}
