package stream

import (
	"fmt"
	"math"
	"sort"
	"strconv"

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
// class the rows form a 2-D staircase (IterTime descending, CommFrac
// non-decreasing), and each class answers "is r dominated" and "which
// rows does r dominate" by binary search. A row costs
// O(C · log F/C) for C classes and F frontier rows, plus a memmove
// within one class when it joins the frontier; with every MemBytes
// distinct each class holds one row and the cost is an O(F) scan, as a
// flat frontier slice would pay on every grid.
//
// Two things make the grid's own stream order cheap. The grid streams
// its scenarios in ascending flop-vs-bw order, so a row that joins its
// class has the class's least IterTime and greatest CommFrac: the
// staircase runs that way so that the join lands at its end, an append
// rather than a shift of the whole class. And most rows are dominated
// by the very point that dominated the last row of their footprint, so
// the reducer remembers that point, the witness, by footprint and tests
// it before any class. A witness stays a valid proof after it leaves
// the frontier, since whatever removed it dominates it too, so the
// table is never invalidated.
//
// The staircases hold pointer-free points (the two objectives they
// order and the row's index in a row store), so the searches, inserts
// and cuts move 24-byte points and never an 88-byte Row with a string
// pointer in it. Each class also keeps its staircase's ends, so the
// walks over the other classes read one contiguous array and open a
// staircase only when its ends say it may matter. The rows live in one
// append-only store; a row that leaves the frontier stays there, dead,
// until the dead rows outnumber the live ones by more than paretoSlack,
// when the live rows are compacted in class order into a spare buffer
// that the next compaction reuses. The store thus never holds more than
// 2·Size()+paretoSlack rows, and Emit allocates only to grow the store
// (by doubling), a staircase or the class list. Close packs the
// frontier into one array of exactly Size() rows in class order and
// drops the points, keeping only the fixed-size witness table beside
// it; an Emit after Close rebuilds the points from that array.
type Pareto struct {
	// classes holds the staircases by memory class, ascending MemBytes.
	// No class is empty. Nil after Close: store alone is the frontier.
	classes []paretoClass
	// store holds every row a point refers to, and the dead rows since
	// the last compaction; spare is the next compaction's target.
	store, spare []Row
	// size counts the frontier's rows, dead the store's other rows.
	size, dead int
	canceled   int64
	// witness holds the last point that dominated a row of each
	// footprint, by footprint hash; see paretoWitness.
	witness [1 << paretoWitnessBits]paretoWitness
}

// paretoSlack is how many more dead rows than live ones the store may
// hold before it is compacted. Small, so that compaction runs on small
// streams too.
const paretoSlack = 8

// paretoWitnessBits sizes the witness table: 256 slots of 32 bytes.
// A row reads one slot; a miss or a collision costs only the class walk
// the witness would have skipped.
const paretoWitnessBits = 8

// paretoWitness is the objectives of a point that dominated an earlier
// row: a proof for any later row it also dominates. It holds values,
// never a ref, so that it outlives the point's place in the frontier.
type paretoWitness struct {
	mem  units.Bytes
	iter units.Seconds
	comm float64
	set  bool
}

// witnessSlot returns the witness table slot of footprint m: the top
// bits of its bits times a constant (Fibonacci hashing).
func witnessSlot(m units.Bytes) int {
	return int(math.Float64bits(float64(m)) * 0x9e3779b97f4a7c15 >> (64 - paretoWitnessBits))
}

// dominates reports whether the witness dominates the row (m, t, comm):
// no worse on every objective and strictly better on one. An exact tie
// does not.
func (w *paretoWitness) dominates(m units.Bytes, t units.Seconds, comm float64) bool {
	return w.set && w.mem <= m && w.iter <= t && w.comm <= comm &&
		(w.mem < m || w.iter < t || w.comm < comm)
}

// paretoPoint is one frontier row in its class's staircase: the two
// objectives the staircase orders, and ref, the row's index in the
// store.
type paretoPoint struct {
	iter units.Seconds
	comm float64
	ref  int
}

// paretoClass is the staircase of frontier rows sharing one MemBytes
// value. Rows of one class never dominate each other: IterTime
// descends and CommFrac does not decrease, a strictly shorter IterTime
// coming with a strictly greater CommFrac. Points with equal IterTime
// are exact ties, equal on all three objectives.
type paretoClass struct {
	mem units.Bytes
	// The staircase's ends: pts[0] has the greatest IterTime and the
	// least CommFrac, pts[len-1] the least IterTime and the greatest
	// CommFrac.
	minIter, maxIter units.Seconds
	minComm, maxComm float64
	pts              []paretoPoint
}

// setEnds refreshes the class's ends after its points changed.
func (c *paretoClass) setEnds() {
	first, last := &c.pts[0], &c.pts[len(c.pts)-1]
	c.maxIter, c.minComm = first.iter, first.comm
	c.minIter, c.maxComm = last.iter, last.comm
}

// NewPareto returns an empty frontier reducer.
func NewPareto() *Pareto { return &Pareto{} }

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
	if p.classes == nil && len(p.store) > 0 {
		p.reindex()
	}
	m, t, comm := r.MemBytes, r.IterTime, r.CommFrac
	w := &p.witness[witnessSlot(m)]
	if w.dominates(m, t, comm) {
		return nil
	}
	at := p.classAt(m)
	// Classes below r's footprint dominate r with any staircase point no
	// worse on both other objectives; the first point with IterTime <=
	// r's has the smallest CommFrac of those, so it alone decides.
	for i := 0; i < at; i++ {
		c := &p.classes[i]
		if c.minIter > t || c.minComm > comm {
			continue // every point is worse than r on one of the two
		}
		if j := firstIterAtMost(c.pts, t); j < len(c.pts) && c.pts[j].comm <= comm {
			*w = paretoWitness{mem: c.mem, iter: c.pts[j].iter, comm: c.pts[j].comm, set: true}
			return nil
		}
	}
	var c *paretoClass
	var a, b int
	tie := false
	if at < len(p.classes) && p.classes[at].mem <= m {
		c = &p.classes[at]
		j := firstIterAtMost(c.pts, t)
		if j < len(c.pts) && c.pts[j].comm <= comm {
			if pt := c.pts[j]; pt.comm < comm || pt.iter < t {
				*w = paretoWitness{mem: c.mem, iter: pt.iter, comm: pt.comm, set: true}
				return nil
			}
			// An exact tie: r dominates just what its twin dominates —
			// nothing on the frontier. Keep both, r first.
			a, b, tie = j, j, true
		} else {
			a, b = c.dominatedRange(t, comm)
		}
	} else {
		p.classes = append(p.classes, paretoClass{})
		copy(p.classes[at+1:], p.classes[at:])
		p.classes[at] = paretoClass{mem: m}
		c = &p.classes[at]
	}
	p.dead += b - a
	p.size += 1 - (b - a)
	c.pts = insertPoint(c.pts, a, b, paretoPoint{iter: t, comm: comm, ref: len(p.store)})
	c.setEnds()
	if len(p.store) == cap(p.store) {
		// Double the store: append grows a large slice by 1.25x, which
		// would allocate, clear and copy it about three times as often.
		p.store = append(make([]Row, 0, 2*len(p.store)+paretoSlack), p.store...)
	}
	p.store = append(p.store, r)
	if tie {
		return nil
	}
	// Every row r dominates in a class above its footprint is no worse
	// than r on both other objectives: one contiguous staircase range.
	// Classes the cut empties are dropped.
	keep := at + 1
	for i := at + 1; i < len(p.classes); i++ {
		c := &p.classes[i]
		if a, b := c.dominatedRange(t, comm); a < b {
			p.dead += b - a
			p.size -= b - a
			if a == 0 && b == len(c.pts) {
				continue
			}
			c.pts = append(c.pts[:a], c.pts[b:]...)
			c.setEnds()
		}
		if keep < i {
			p.classes[keep] = *c
		}
		keep++
	}
	if keep < len(p.classes) {
		clear(p.classes[keep:])
		p.classes = p.classes[:keep]
	}
	if p.dead > p.size+paretoSlack {
		p.compact()
	}
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

// firstIterAtMost returns the index of the first staircase point with
// IterTime <= t, or len(pts) if there is none.
func firstIterAtMost(pts []paretoPoint, t units.Seconds) int {
	lo, hi := 0, len(pts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pts[mid].iter > t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// dominatedRange returns the staircase range [a, b) of points no better
// than (t, comm) on IterTime and CommFrac: IterTime >= t up to b,
// CommFrac >= comm from a on. The caller knows the row is no tie of any
// of them. When the row is not dominated by the class, a is also where
// it belongs in it.
func (c *paretoClass) dominatedRange(t units.Seconds, comm float64) (a, b int) {
	// Two O(1) answers for a range that is empty: every point is faster
	// than the row, or every point communicates less. The second is the
	// grid's usual join, at the staircase's end.
	n := len(c.pts)
	if c.maxIter < t {
		return 0, 0
	}
	if c.maxComm < comm {
		return n, n
	}
	pts := c.pts
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pts[mid].iter >= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	b = lo
	lo = 0
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pts[mid].comm < comm {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, b
}

// insertPoint replaces pts[a:b] with pt, shifting the tail in place.
func insertPoint(pts []paretoPoint, a, b int, pt paretoPoint) []paretoPoint {
	if a == b {
		// The append grows the class's backing array only when it is
		// full — amortized over the class's size, not paid per row.
		pts = append(pts, paretoPoint{})
		copy(pts[a+1:], pts[a:])
		pts[a] = pt
		return pts
	}
	pts[a] = pt
	return append(pts[:a+1], pts[b:]...)
}

// compact moves the live rows into the spare buffer, which becomes the
// store; the old store becomes the spare. A spare is made at the
// store's capacity, so later compactions allocate nothing until the
// frontier outgrows it.
func (p *Pareto) compact() {
	if cap(p.spare) < p.size {
		p.spare = make([]Row, 0, cap(p.store))
	}
	p.store, p.spare = p.pack(p.spare[:0]), p.store[:0]
	p.dead = 0
}

// pack appends the frontier's rows to dst in class order, each class
// in staircase order, and points every point at its row's new index.
func (p *Pareto) pack(dst []Row) []Row {
	for i := range p.classes {
		pts := p.classes[i].pts
		for j := range pts {
			dst = append(dst, p.store[pts[j].ref])
			pts[j].ref = len(dst) - 1
		}
	}
	return dst
}

// reindex rebuilds the points from the store Close packed: each class
// is a run of equal MemBytes, already in staircase order. The classes
// share one array, each clipped to its length, so a class that grows
// reallocates on its own.
func (p *Pareto) reindex() {
	pts := make([]paretoPoint, len(p.store))
	for i := range p.store {
		pts[i] = paretoPoint{iter: p.store[i].IterTime, comm: p.store[i].CommFrac, ref: i}
	}
	for a := 0; a < len(pts); {
		mem := p.store[a].MemBytes
		b := a + 1
		for b < len(pts) && p.store[b].MemBytes <= mem {
			b++
		}
		c := paretoClass{mem: mem, pts: pts[a:b:b]}
		c.setEnds()
		p.classes = append(p.classes, c)
		a = b
	}
}

// Close implements Sink. It packs the frontier into one array of
// exactly Size() rows in class order and drops the points and the
// spare buffer, so the frontier the reducer keeps carries no index and
// no spare capacity.
func (p *Pareto) Close(Trailer) error {
	if p.classes != nil {
		p.store = p.pack(make([]Row, 0, p.size))
		p.classes, p.spare, p.dead = nil, nil, 0
	}
	return nil
}

// Size returns the current frontier cardinality.
func (p *Pareto) Size() int { return p.size }

// Canceled returns the number of canceled (non-finite) rows skipped.
func (p *Pareto) Canceled() int64 { return p.canceled }

// Frontier returns the non-dominated rows sorted by (IterTime, Index) —
// a deterministic order independent of arrival interleaving. The slice
// is a copy; the reducer keeps streaming.
func (p *Pareto) Frontier() []Row {
	out := make([]Row, 0, p.size)
	if p.classes == nil {
		out = append(out, p.store...)
	}
	for _, c := range p.classes {
		for _, pt := range c.pts {
			out = append(out, p.store[pt.ref])
		}
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
//
// The heap orders pointer-free keys, not rows: each key holds the two
// fields the ranking reads and the slot of its row in a fixed array of
// K rows. A row that does not join costs one key comparison, and a row
// that does is copied once, into the slot of the row it displaces.
type TopK struct {
	k int
	// rows holds the retained rows; a row never moves once in its slot.
	rows []Row
	// heap is a max-heap of keys under topKey.better: the key of the
	// *worst* retained row sits at heap[0], so one comparison decides
	// whether a new row displaces anything.
	heap     []topKey
	canceled int64
}

// topKey is a retained row's place in the TopK heap: its ranking
// fields and the slot of the row in TopK.rows.
type topKey struct {
	iter  units.Seconds
	index int64
	slot  int
}

// better is betterRow on the keys' rows.
func (a topKey) better(b topKey) bool {
	if a.iter < b.iter {
		return true
	}
	if a.iter > b.iter {
		return false
	}
	return a.index < b.index
}

// NewTopK returns a reducer keeping the k best rows; k must be >= 1.
func NewTopK(k int) (*TopK, error) {
	if k < 1 {
		return nil, fmt.Errorf("stream: top-k needs k >= 1, got %d", k)
	}
	return &TopK{k: k, rows: make([]Row, 0, k), heap: make([]topKey, 0, k)}, nil
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
	key := topKey{iter: r.IterTime, index: r.Index}
	if len(t.heap) < t.k {
		key.slot = len(t.rows)
		t.rows = append(t.rows, r)
		t.heap = append(t.heap, key)
		t.siftUp(len(t.heap) - 1)
		return nil
	}
	if key.better(t.heap[0]) {
		key.slot = t.heap[0].slot
		t.rows[key.slot] = r
		t.heap[0] = key
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
	out := make([]Row, len(t.rows))
	copy(out, t.rows)
	sort.Slice(out, func(i, j int) bool { return betterRow(out[i], out[j]) })
	return out
}

// worse orders the heap: parent is worse than (ranked after) children.
func (t *TopK) worse(i, j int) bool { return t.heap[j].better(t.heap[i]) }

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

func (a *marginalAcc) add(comm float64, iter units.Seconds) {
	if a.count == 0 {
		a.minComm, a.maxComm = comm, comm
	} else {
		if comm < a.minComm {
			a.minComm = comm
		}
		if comm > a.maxComm {
			a.maxComm = comm
		}
	}
	a.count++
	a.sumComm += comm
	a.sumIter += float64(iter)
}

// axisKey is the type of an axis value: an integer coordinate or a
// scenario name.
type axisKey interface{ ~int | ~string }

// marginalAxis accumulates one axis: accs[i] holds the statistics of
// the value keys[i], values in first-seen order. A lookup tries the
// value the previous row hit first — a grid streams evolution-major,
// so the scenario changes once per shape sweep and the outer shape
// axes rarely — then scans the values, or, once there are more than
// marginalScan of them, asks a map.
type marginalAxis[K axisKey] struct {
	keys  []K
	accs  []marginalAcc
	last  int
	index map[K]int
}

// marginalScan is the most values an axis finds by a linear scan.
const marginalScan = 16

// at returns the accumulator of value k, adding one on first sight.
func (ax *marginalAxis[K]) at(k K) *marginalAcc {
	if i := ax.last; i < len(ax.keys) && ax.keys[i] == k {
		return &ax.accs[i]
	}
	ax.last = ax.find(k)
	return &ax.accs[ax.last]
}

// find returns the index of value k, adding it on first sight.
func (ax *marginalAxis[K]) find(k K) int {
	if ax.index == nil && len(ax.keys) > marginalScan {
		ax.index = make(map[K]int, 2*len(ax.keys))
		for i, key := range ax.keys {
			ax.index[key] = i
		}
	}
	if ax.index != nil {
		if i, ok := ax.index[k]; ok {
			return i
		}
	} else {
		for i, key := range ax.keys {
			if key == k {
				return i
			}
		}
	}
	i := len(ax.keys)
	ax.keys = append(ax.keys, k)
	ax.accs = append(ax.accs, marginalAcc{})
	if ax.index != nil {
		ax.index[k] = i
	}
	return i
}

// digest renders the axis with its values in ascending order.
func (ax *marginalAxis[K]) digest(name string, label func(K) string) AxisMarginal {
	order := make([]int, len(ax.keys))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return ax.keys[order[a]] < ax.keys[order[b]] })
	out := AxisMarginal{Axis: name}
	for _, i := range order {
		out.Values = append(out.Values, value(label(ax.keys[i]), &ax.accs[i]))
	}
	return out
}

// Marginals accumulates per-axis marginal statistics of the comm
// fraction: for each sweep axis (H, SL, B, TP, evolution scenario) and
// each value it takes, the mean/min/max comm fraction and mean
// iteration time over every grid point with that value. The spread of
// the per-value means answers "which knob moves the comm fraction
// most" without storing a single grid row. Memory is bounded by the
// number of distinct axis values, not the grid size.
//
// Each axis keeps its accumulators in one slice and finds a row's
// value by the previous row's hit, a short scan or a map (see
// marginalAxis): on an evolution-major grid a row pays one compare per
// slow axis, a scan of a few values on the fastest one, and hashes
// only when a new scenario begins. Every accumulator sums its rows in
// stream order, so the means do not depend on how the values are found.
type Marginals struct {
	byH, bySL, byB, byTP marginalAxis[int]
	byEvo                marginalAxis[string]
	canceled             int64
}

// NewMarginals returns an empty marginals reducer.
func NewMarginals() *Marginals { return &Marginals{} }

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
	comm, iter := r.CommFrac, r.IterTime
	m.byH.at(r.H).add(comm, iter)
	m.bySL.at(r.SL).add(comm, iter)
	m.byB.at(r.B).add(comm, iter)
	m.byTP.at(r.TP).add(comm, iter)
	m.byEvo.at(r.Evo).add(comm, iter)
	return nil
}

// Close implements Sink. It drops the axes' lookup maps, which the
// digest does not need; an Emit after Close rebuilds them.
func (m *Marginals) Close(Trailer) error {
	m.byH.index, m.bySL.index, m.byB.index, m.byTP.index = nil, nil, nil, nil
	m.byEvo.index = nil
	return nil
}

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
	name := func(s string) string { return s }
	return []AxisMarginal{
		m.byEvo.digest("evo", name),
		m.byH.digest("H", strconv.Itoa),
		m.bySL.digest("SL", strconv.Itoa),
		m.byB.digest("B", strconv.Itoa),
		m.byTP.digest("TP", strconv.Itoa),
	}
}
