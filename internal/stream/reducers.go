package stream

import (
	"fmt"
	"sort"

	"twocs/internal/units"
)

// This file holds the online reducers: sinks that aggregate a grid
// stream into a bounded digest instead of writing it anywhere. All of
// them are deterministic given the Sink ordering contract (rows arrive
// in index order), so their digests are byte-stable at any worker
// count. Attach them alongside a file writer with Multi.
//
// Canceled rows — back-filled grid points with NaN objectives — are
// skipped by every reducer and counted via Canceled(). NaN compares
// false against everything, so letting such a row through would append
// it to the Pareto frontier undetected (nothing dominates it), let it
// displace a real row in TopK (betterRow falls through to the Index
// tie-break), and poison the Marginals means; skipping makes the
// truncation visible in the digest instead of silently wrong.

// ---------------------------------------------------------------------
// Pareto frontier

// Pareto maintains the 3-objective Pareto frontier of the stream:
// the rows not dominated on (IterTime, CommFrac, MemBytes), all three
// minimized. A row dominates another when it is no worse on every
// objective and strictly better on at least one. The frontier is the
// standard answer to "which configurations are worth looking at" in an
// exhaustive design-space search: everything off it is beaten
// outright by some on-frontier configuration.
//
// Real frontiers are large: the Table-3 axes (B=1) under 1,000
// flop-vs-bw scenarios keep 9,207 frontier rows of 156k points, and
// 18,404 of 312k under 2,000, so a flat scan per emitted row makes the
// search quadratic in the grid. The frontier is instead
// grouped into memory classes — per-device memory depends only on the
// shape (H, SL, B, TP), never on the hardware scenario, so the Table-3
// grid has 156 footprints and 36 of them hold frontier rows. Inside one
// class the rows form a 2-D staircase (IterTime ascending, CommFrac
// non-increasing), and each class answers "is r dominated" and "which
// rows does r dominate" by binary search. A row costs
// O(C · log F/C) for C classes and F frontier rows, plus a memmove
// within one class when it joins the frontier; with every MemBytes
// distinct each class holds one row and the cost is an O(F) scan, as a
// flat frontier slice would pay on every grid.
type Pareto struct {
	// classes holds the frontier by memory class, ascending MemBytes.
	// No class is empty.
	classes  []paretoClass
	canceled int64
}

// paretoClass is the frontier rows sharing one MemBytes value. Rows of
// one class never dominate each other, so they form a staircase:
// IterTime ascending and CommFrac non-increasing, a strictly longer
// IterTime coming with a strictly smaller CommFrac. Rows with equal
// IterTime are exact ties, equal on all three objectives.
type paretoClass struct {
	mem  units.Bytes
	rows []Row
}

// NewPareto returns an empty frontier reducer.
func NewPareto() *Pareto { return &Pareto{} }

// dominates reports whether a is no worse than b on every objective and
// strictly better on at least one.
func dominates(a, b Row) bool {
	if a.IterTime > b.IterTime || a.CommFrac > b.CommFrac || a.MemBytes > b.MemBytes {
		return false
	}
	return a.IterTime < b.IterTime || a.CommFrac < b.CommFrac || a.MemBytes < b.MemBytes
}

// Emit implements Sink.
//
//lint:hotpath
func (p *Pareto) Emit(r Row) error {
	if !r.Finite() {
		// NaN's all-false comparisons would make r undominatable: it
		// would join the frontier and stay. Count it instead.
		p.canceled++
		return nil
	}
	at := p.classAt(r.MemBytes)
	// Classes below r's footprint dominate r with any staircase point no
	// worse on both other objectives; the last point with IterTime <=
	// r's has the smallest CommFrac of those, so it alone decides.
	for i := 0; i < at; i++ {
		rows := p.classes[i].rows
		if rows[0].IterTime > r.IterTime || rows[len(rows)-1].CommFrac > r.CommFrac {
			continue // every row is worse than r on one of the two
		}
		if j := itersAtMost(rows, r.IterTime); j > 0 && rows[j-1].CommFrac <= r.CommFrac {
			return nil
		}
	}
	if at < len(p.classes) && p.classes[at].mem <= r.MemBytes {
		c := &p.classes[at]
		j := itersAtMost(c.rows, r.IterTime)
		if j > 0 && c.rows[j-1].CommFrac <= r.CommFrac {
			if c.rows[j-1].CommFrac < r.CommFrac || c.rows[j-1].IterTime < r.IterTime {
				return nil
			}
			// An exact tie: r dominates just what its twin dominates —
			// nothing on the frontier. Keep both, the twin first.
			c.rows = insertRow(c.rows, j, j, r)
			return nil
		}
		a, b := dominatedRange(c.rows, r)
		c.rows = insertRow(c.rows, a, b, r)
	} else {
		p.classes = append(p.classes, paretoClass{})
		copy(p.classes[at+1:], p.classes[at:])
		//lint:ignore hotalloc one allocation per memory footprint entering the frontier, not per row
		p.classes[at] = paretoClass{mem: r.MemBytes, rows: []Row{r}}
	}
	// Every row r dominates in a class above its footprint is no worse
	// than r on both other objectives: one contiguous staircase range.
	// Classes the cut empties are dropped.
	keep := at + 1
	for i := at + 1; i < len(p.classes); i++ {
		c := p.classes[i]
		if a, b := dominatedRange(c.rows, r); a < b {
			if a == 0 && b == len(c.rows) {
				continue
			}
			c.rows = append(c.rows[:a], c.rows[b:]...)
		}
		p.classes[keep] = c
		keep++
	}
	for i := keep; i < len(p.classes); i++ {
		p.classes[i] = paretoClass{}
	}
	p.classes = p.classes[:keep]
	return nil
}

// classAt returns the index of the first class whose footprint is not
// below m.
func (p *Pareto) classAt(m units.Bytes) int {
	lo, hi := 0, len(p.classes)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.classes[mid].mem < m {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// itersAtMost returns how many staircase rows have IterTime <= t.
func itersAtMost(rows []Row, t units.Seconds) int {
	lo, hi := 0, len(rows)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if rows[mid].IterTime <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// dominatedRange returns the staircase range [a, b) of rows no better
// than r on IterTime and CommFrac: IterTime >= r's from a on, CommFrac
// >= r's up to b. The caller knows r is no tie of any of them. When r
// is not dominated by the class, a is also where r belongs in it.
func dominatedRange(rows []Row, r Row) (a, b int) {
	// Two O(1) answers for a range that is empty: every row is faster
	// than r, or every row communicates less.
	if n := len(rows); n == 0 || rows[n-1].IterTime < r.IterTime {
		return n, n
	}
	if rows[0].CommFrac < r.CommFrac {
		return 0, 0
	}
	lo, hi := 0, len(rows)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if rows[mid].IterTime < r.IterTime {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	a = lo
	hi = len(rows)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if rows[mid].CommFrac >= r.CommFrac {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return a, lo
}

// insertRow replaces rows[a:b] with r, shifting the tail in place.
func insertRow(rows []Row, a, b int, r Row) []Row {
	if a == b {
		// The append grows the class's backing array only when it is
		// full — amortized over the class's size, not paid per row.
		rows = append(rows, Row{})
		copy(rows[a+1:], rows[a:])
		rows[a] = r
		return rows
	}
	rows[a] = r
	return append(rows[:a+1], rows[b:]...)
}

// Close implements Sink. It packs the classes into one array, each
// class clipped to its length, so the frontier the reducer keeps holds
// no spare capacity from the stream's growth and no per-class
// allocation rounding. An Emit after Close still works: a class that
// grows reallocates on its own, and one that shrinks stays inside its
// own part of the array.
func (p *Pareto) Close(Trailer) error {
	all := make([]Row, 0, p.Size())
	for i := range p.classes {
		c := &p.classes[i]
		start := len(all)
		all = append(all, c.rows...)
		c.rows = all[start:len(all):len(all)]
	}
	return nil
}

// Size returns the current frontier cardinality.
func (p *Pareto) Size() int {
	n := 0
	for _, c := range p.classes {
		n += len(c.rows)
	}
	return n
}

// Canceled returns the number of canceled (non-finite) rows skipped.
func (p *Pareto) Canceled() int64 { return p.canceled }

// Frontier returns the non-dominated rows sorted by (IterTime, Index) —
// a deterministic order independent of arrival interleaving. The slice
// is a copy; the reducer keeps streaming.
func (p *Pareto) Frontier() []Row {
	out := make([]Row, 0, p.Size())
	for _, c := range p.classes {
		out = append(out, c.rows...)
	}
	sort.Slice(out, func(i, j int) bool { return betterRow(out[i], out[j]) })
	return out
}

// betterRow is the deterministic ranking the reducers share: smaller
// IterTime first, grid index as the tie-break.
func betterRow(a, b Row) bool {
	if a.IterTime < b.IterTime {
		return true
	}
	if a.IterTime > b.IterTime {
		return false
	}
	return a.Index < b.Index
}

// ---------------------------------------------------------------------
// Top-K heap

// TopK keeps the K best rows by iteration time (ties broken by grid
// index) in a bounded max-heap: O(K) memory and O(log K) per emitted
// row no matter how large the grid is.
type TopK struct {
	k int
	// heap is a max-heap under betterRow: the *worst* retained row sits
	// at heap[0], so one comparison decides whether a new row displaces
	// anything.
	heap     []Row
	canceled int64
}

// NewTopK returns a reducer keeping the k best rows; k must be >= 1.
func NewTopK(k int) (*TopK, error) {
	if k < 1 {
		return nil, fmt.Errorf("stream: top-k needs k >= 1, got %d", k)
	}
	return &TopK{k: k, heap: make([]Row, 0, k)}, nil
}

// Emit implements Sink.
//
//lint:hotpath
func (t *TopK) Emit(r Row) error {
	if !r.Finite() {
		// betterRow is false both ways on NaN, so the ranking would fall
		// through to the Index tie-break and a canceled row could evict
		// a real one. Count it instead.
		t.canceled++
		return nil
	}
	if len(t.heap) < t.k {
		t.heap = append(t.heap, r)
		t.siftUp(len(t.heap) - 1)
		return nil
	}
	if betterRow(r, t.heap[0]) {
		t.heap[0] = r
		t.siftDown(0)
	}
	return nil
}

// Close implements Sink.
func (t *TopK) Close(Trailer) error { return nil }

// Canceled returns the number of canceled (non-finite) rows skipped.
func (t *TopK) Canceled() int64 { return t.canceled }

// Best returns the retained rows, best first. The slice is a copy.
func (t *TopK) Best() []Row {
	out := make([]Row, len(t.heap))
	copy(out, t.heap)
	sort.Slice(out, func(i, j int) bool { return betterRow(out[i], out[j]) })
	return out
}

// worse orders the heap: parent is worse than (ranked after) children.
func (t *TopK) worse(i, j int) bool { return betterRow(t.heap[j], t.heap[i]) }

func (t *TopK) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !t.worse(i, parent) {
			return
		}
		t.heap[i], t.heap[parent] = t.heap[parent], t.heap[i]
		i = parent
	}
}

func (t *TopK) siftDown(i int) {
	n := len(t.heap)
	for {
		worst := i
		if l := 2*i + 1; l < n && t.worse(l, worst) {
			worst = l
		}
		if r := 2*i + 2; r < n && t.worse(r, worst) {
			worst = r
		}
		if worst == i {
			return
		}
		t.heap[i], t.heap[worst] = t.heap[worst], t.heap[i]
		i = worst
	}
}

// ---------------------------------------------------------------------
// Per-axis marginals

// marginalAcc accumulates the statistics of one axis value.
type marginalAcc struct {
	count            int64
	sumComm          float64
	minComm, maxComm float64
	sumIter          float64
}

func (a *marginalAcc) add(r Row) {
	if a.count == 0 {
		a.minComm, a.maxComm = r.CommFrac, r.CommFrac
	} else {
		if r.CommFrac < a.minComm {
			a.minComm = r.CommFrac
		}
		if r.CommFrac > a.maxComm {
			a.maxComm = r.CommFrac
		}
	}
	a.count++
	a.sumComm += r.CommFrac
	a.sumIter += float64(r.IterTime)
}

// Marginals accumulates per-axis marginal statistics of the comm
// fraction: for each sweep axis (H, SL, B, TP, evolution scenario) and
// each value it takes, the mean/min/max comm fraction and mean
// iteration time over every grid point with that value. The spread of
// the per-value means answers "which knob moves the comm fraction
// most" without storing a single grid row. Memory is bounded by the
// number of distinct axis values, not the grid size.
type Marginals struct {
	byH, bySL, byB, byTP map[int]*marginalAcc
	byEvo                map[string]*marginalAcc
	canceled             int64
}

// NewMarginals returns an empty marginals reducer.
func NewMarginals() *Marginals {
	return &Marginals{
		byH:   make(map[int]*marginalAcc),
		bySL:  make(map[int]*marginalAcc),
		byB:   make(map[int]*marginalAcc),
		byTP:  make(map[int]*marginalAcc),
		byEvo: make(map[string]*marginalAcc),
	}
}

func addTo[K comparable](m map[K]*marginalAcc, k K, r Row) {
	a := m[k]
	if a == nil {
		a = &marginalAcc{}
		m[k] = a
	}
	a.add(r)
}

// Emit implements Sink.
//
//lint:hotpath
func (m *Marginals) Emit(r Row) error {
	if !r.Finite() {
		// One NaN in a sum makes the whole axis mean NaN. Count it
		// instead; the per-value counts then total Rows - Canceled.
		m.canceled++
		return nil
	}
	addTo(m.byH, r.H, r)
	addTo(m.bySL, r.SL, r)
	addTo(m.byB, r.B, r)
	addTo(m.byTP, r.TP, r)
	addTo(m.byEvo, r.Evo, r)
	return nil
}

// Close implements Sink.
func (m *Marginals) Close(Trailer) error { return nil }

// Canceled returns the number of canceled (non-finite) rows skipped.
func (m *Marginals) Canceled() int64 { return m.canceled }

// MarginalValue is the digest of one axis value.
type MarginalValue struct {
	// Value is the axis value rendered as a string ("8192", "4x …").
	Value string
	Count int64
	// MeanCommFrac/MinCommFrac/MaxCommFrac summarize the comm fraction
	// over every row with this value.
	MeanCommFrac, MinCommFrac, MaxCommFrac float64
	// MeanIterTime is the mean projected iteration time.
	MeanIterTime units.Seconds
}

// AxisMarginal is one axis' digest, values in ascending axis order.
type AxisMarginal struct {
	Axis   string
	Values []MarginalValue
}

// Spread returns max - min of the per-value mean comm fractions: how
// much this knob alone moves the metric across its sweep range.
func (a AxisMarginal) Spread() float64 {
	if len(a.Values) == 0 {
		return 0
	}
	lo, hi := a.Values[0].MeanCommFrac, a.Values[0].MeanCommFrac
	for _, v := range a.Values[1:] {
		if v.MeanCommFrac < lo {
			lo = v.MeanCommFrac
		}
		if v.MeanCommFrac > hi {
			hi = v.MeanCommFrac
		}
	}
	return hi - lo
}

func intAxis(name string, m map[int]*marginalAcc) AxisMarginal {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := AxisMarginal{Axis: name}
	for _, k := range keys {
		out.Values = append(out.Values, value(fmt.Sprint(k), m[k]))
	}
	return out
}

func value(label string, a *marginalAcc) MarginalValue {
	return MarginalValue{
		Value:        label,
		Count:        a.count,
		MeanCommFrac: a.sumComm / float64(a.count),
		MinCommFrac:  a.minComm,
		MaxCommFrac:  a.maxComm,
		MeanIterTime: units.Seconds(a.sumIter / float64(a.count)),
	}
}

// Axes returns every axis digest in a fixed order (evo, H, SL, B, TP),
// each axis' values sorted ascending — deterministic regardless of
// arrival order.
func (m *Marginals) Axes() []AxisMarginal {
	evoKeys := make([]string, 0, len(m.byEvo))
	for k := range m.byEvo {
		evoKeys = append(evoKeys, k)
	}
	sort.Strings(evoKeys)
	evo := AxisMarginal{Axis: "evo"}
	for _, k := range evoKeys {
		evo.Values = append(evo.Values, value(k, m.byEvo[k]))
	}
	return []AxisMarginal{
		evo,
		intAxis("H", m.byH),
		intAxis("SL", m.bySL),
		intAxis("B", m.byB),
		intAxis("TP", m.byTP),
	}
}
