package stream

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"twocs/internal/units"
)

// randomGrid builds a deterministic pseudo-random grid of n rows with
// clustered objective values (so dominance relations and marginal
// groups actually occur).
func randomGrid(rng *rand.Rand, n int) []Row {
	evos := []string{"base", "flop4x", "net4x"}
	hs := []int{1024, 4096, 16384}
	sls := []int{2048, 8192}
	bs := []int{1, 4}
	tps := []int{8, 64, 256}
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{
			Index:    int64(i),
			Evo:      evos[rng.Intn(len(evos))],
			FlopVsBW: float64(int(1) << rng.Intn(3)),
			H:        hs[rng.Intn(len(hs))],
			SL:       sls[rng.Intn(len(sls))],
			B:        bs[rng.Intn(len(bs))],
			TP:       tps[rng.Intn(len(tps))],
			// Coarse quantization produces exact-tie objective values,
			// exercising the "no worse on all, better on one" edge and the
			// index tie-break.
			IterTime: units.Seconds(float64(rng.Intn(8)+1) * 0.01),
			CommFrac: float64(rng.Intn(10)) * 0.1,
			MemBytes: units.Bytes(float64(rng.Intn(6)+1) * 1e9),
		}
	}
	return rows
}

// dominates reports whether a is no worse than b on every objective and
// strictly better on at least one: the definition the oracle applies.
func dominates(a, b Row) bool {
	if a.IterTime > b.IterTime || a.CommFrac > b.CommFrac || a.MemBytes > b.MemBytes {
		return false
	}
	return a.IterTime < b.IterTime || a.CommFrac < b.CommFrac || a.MemBytes < b.MemBytes
}

// bruteFrontier is the O(n²) oracle: a row is on the frontier iff no
// other row dominates it.
func bruteFrontier(rows []Row) []Row {
	var out []Row
	for _, r := range rows {
		dominated := false
		for _, other := range rows {
			if dominates(other, r) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return betterRow(out[i], out[j]) })
	return out
}

func rowKey(r Row) string {
	return fmt.Sprintf("%d/%s/%g/%d/%d/%d/%d/%g/%g/%g",
		r.Index, r.Evo, r.FlopVsBW, r.H, r.SL, r.B, r.TP,
		float64(r.IterTime), r.CommFrac, float64(r.MemBytes))
}

func diffRows(t *testing.T, label string, got, want []Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d rows, oracle has %d", label, len(got), len(want))
	}
	for i := range got {
		if rowKey(got[i]) != rowKey(want[i]) {
			t.Fatalf("%s: row %d diverges:\n got  %+v\n want %+v", label, i, got[i], want[i])
		}
	}
}

// TestParetoOracle checks the online frontier against the brute-force
// dominance oracle on seeded random grids. Duplicated objective vectors
// are deliberately frequent: the frontier must keep mutually
// non-dominating ties.
func TestParetoOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200) + 1
		rows := randomGrid(rng, n)
		p := NewPareto()
		for _, r := range rows {
			if err := p.Emit(r); err != nil {
				t.Fatal(err)
			}
		}
		diffRows(t, fmt.Sprintf("trial %d (n=%d)", trial, n), p.Frontier(), bruteFrontier(rows))
		if p.Size() != len(bruteFrontier(rows)) {
			t.Fatalf("trial %d: Size() = %d, oracle %d", trial, p.Size(), len(bruteFrontier(rows)))
		}
	}
}

// TestParetoFrontierInternalConsistency: no frontier member may
// dominate another.
func TestParetoFrontierInternalConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := NewPareto()
	for _, r := range randomGrid(rng, 500) {
		if err := p.Emit(r); err != nil {
			t.Fatal(err)
		}
	}
	f := p.Frontier()
	for i := range f {
		for j := range f {
			if i != j && dominates(f[i], f[j]) {
				t.Fatalf("frontier member %d dominates member %d", i, j)
			}
		}
	}
}

// frontierGrid builds a grid shaped like the real design space: every
// shape has its own per-device memory (one memory class per shape) and
// compute and communication times that grow together as the footprint
// shrinks; every scenario speeds compute up by its own factor. Faster
// compute shortens the iteration and raises the comm fraction, so each
// class is a long staircase and most rows land on the frontier — the
// regime where a per-row frontier scan goes quadratic. Rows are
// scenario-major, as the grid streams them, and carry Table-3-like
// coordinates: a named scenario, and a shape whose TP changes every
// row, SL every 7 rows and H every 28.
func frontierGrid(rng *rand.Rand, shapes, scenarios int) []Row {
	type shape struct {
		comp, comm float64
		mem        units.Bytes
	}
	ss := make([]shape, shapes)
	for i := range ss {
		k := 1 + rng.Float64()
		ss[i] = shape{
			comp: 5 * k * (1 + 0.2*rng.Float64()),
			comm: 0.5 * k * (1 + 0.03*rng.Float64()),
			mem:  units.Bytes((3 - k) * 1e9),
		}
	}
	rows := make([]Row, 0, shapes*scenarios)
	for e := 0; e < scenarios; e++ {
		speed := 1 + 15*rng.Float64()
		evo := strconv.FormatFloat(speed, 'f', 6, 64) + "x"
		for i, sh := range ss {
			iter := sh.comp/speed + sh.comm
			rows = append(rows, Row{
				Index:    int64(len(rows)),
				Evo:      evo,
				FlopVsBW: speed,
				H:        1024 << (i / 28 % 6),
				SL:       1024 << (i / 7 % 4),
				B:        1,
				TP:       4 << (i % 7),
				IterTime: units.Seconds(iter),
				CommFrac: sh.comm / iter,
				MemBytes: sh.mem,
			})
		}
	}
	return rows
}

// checkFrontier holds a reducer fed rows to the brute-force oracle over
// their finite subset: the same frontier row for row, the same Size, no
// member dominating another, and every non-finite row counted.
func checkFrontier(t *testing.T, label string, p *Pareto, rows []Row) {
	t.Helper()
	finite := finiteOnly(rows)
	got, want := p.Frontier(), bruteFrontier(finite)
	diffRows(t, label, got, want)
	if p.Size() != len(want) {
		t.Fatalf("%s: Size() = %d, oracle %d", label, p.Size(), len(want))
	}
	checkStoreBound(t, label, p)
	for i := range got {
		for j := range got {
			if i != j && dominates(got[i], got[j]) {
				t.Fatalf("%s: frontier member %d dominates member %d", label, i, j)
			}
		}
	}
	if n := int64(len(rows) - len(finite)); p.Canceled() != n {
		t.Fatalf("%s: Canceled() = %d, want %d", label, p.Canceled(), n)
	}
}

// checkStoreBound holds the row store to its bound: the dead rows it
// keeps never outnumber the live ones by more than paretoSlack.
func checkStoreBound(t *testing.T, label string, p *Pareto) {
	t.Helper()
	if len(p.store) > 2*p.Size()+paretoSlack {
		t.Fatalf("%s: row store holds %d rows for a %d-row frontier, bound 2·Size()+%d",
			label, len(p.store), p.Size(), paretoSlack)
	}
}

// TestParetoOracleLargeFrontier: a correlated ~150-class stream whose
// frontier holds thousands of rows, as real grids do.
func TestParetoOracleLargeFrontier(t *testing.T) {
	rows := frontierGrid(rand.New(rand.NewSource(5)), 150, 55)
	p := NewPareto()
	emitAll(t, p, rows)
	if p.Size() < 5000 {
		t.Fatalf("frontier holds %d rows, want a large one (>= 5000)", p.Size())
	}
	if n := len(p.classes); n < 100 {
		t.Fatalf("frontier spans %d memory classes, want ~150", n)
	}
	checkFrontier(t, "large frontier", p, rows)
}

// TestParetoOracleAscendingScenarios: frontierGrid's shapes with the
// scenarios in ascending speed, the order the grid streams them. Each
// scenario then shortens every shape's IterTime and raises its
// CommFrac, so every row that joins its class does so at the fast end
// of the staircase.
func TestParetoOracleAscendingScenarios(t *testing.T) {
	rows := frontierGrid(rand.New(rand.NewSource(5)), 150, 40)
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].FlopVsBW < rows[j].FlopVsBW })
	for i := range rows {
		rows[i].Index = int64(i)
	}
	p := NewPareto()
	emitAll(t, p, rows)
	checkFrontier(t, "ascending scenarios", p, rows)
}

// TestParetoWitness: a row is rejected on the word of a witness that has
// since been cut from the frontier, and a row exactly tied with the
// witness is kept.
func TestParetoWitness(t *testing.T) {
	row := func(i int64, mem float64, iter units.Seconds, comm float64) Row {
		return Row{Index: i, IterTime: iter, CommFrac: comm, MemBytes: units.Bytes(mem)}
	}
	w := row(0, 3e9, 2, 0.5)
	rows := []Row{
		w,
		row(1, 3e9, 3, 0.6), // dominated by w: w becomes its footprint's witness
		row(2, 3e9, 2, 0.5), // an exact tie with the witness: kept
		row(3, 1e9, 1, 0.4), // dominates w and its twin: both are cut
	}
	p := NewPareto()
	emitAll(t, p, rows)
	if got := p.witness[witnessSlot(w.MemBytes)]; !got.set || got.iter != w.IterTime || got.comm != w.CommFrac {
		t.Fatalf("witness of footprint %g is %+v, want row 0's objectives", float64(w.MemBytes), got)
	}
	for _, r := range p.Frontier() {
		if r.Index == w.Index {
			t.Fatal("the witness is still on the frontier")
		}
	}
	// Dominated by the cut witness, which alone is tested before the
	// classes.
	rows = append(rows, row(4, 3e9, 2.5, 0.55))
	emitAll(t, p, rows[4:])
	checkFrontier(t, "cut witness", p, rows)

	q := NewPareto()
	emitAll(t, q, rows[:3])
	checkFrontier(t, "tie with the witness", q, rows[:3])
	if q.Size() != 2 {
		t.Fatalf("frontier holds %d rows, want the witness and its twin", q.Size())
	}
}

// TestParetoOracleCompaction: a large frontier that a second, faster
// wave of the same shapes sweeps away, so dead rows pile up and the
// store is compacted mid-stream, repeatedly and while thousands of rows
// are live.
func TestParetoOracleCompaction(t *testing.T) {
	rows := frontierGrid(rand.New(rand.NewSource(23)), 150, 40)
	n := len(rows)
	for _, r := range rows[:n] {
		r.Index = int64(len(rows))
		r.IterTime /= 2
		r.CommFrac /= 2
		rows = append(rows, r)
	}
	p := NewPareto()
	compactions := 0
	for _, r := range rows {
		before := len(p.store)
		if err := p.Emit(r); err != nil {
			t.Fatal(err)
		}
		if len(p.store) < before {
			compactions++
		}
		checkStoreBound(t, fmt.Sprintf("row %d", r.Index), p)
	}
	if compactions < 2 {
		t.Fatalf("the store was compacted %d times, want several", compactions)
	}
	checkFrontier(t, "compaction", p, rows)
}

// TestParetoOracleDistinctMem: with every MemBytes distinct each class
// holds one row, so the cross-class walks carry all the work.
func TestParetoOracleDistinctMem(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		rows := randomGrid(rng, rng.Intn(400)+1)
		for i, m := range rng.Perm(len(rows)) {
			rows[i].MemBytes = units.Bytes(float64(m+1) * 1e6)
		}
		p := NewPareto()
		emitAll(t, p, rows)
		checkFrontier(t, fmt.Sprintf("trial %d", trial), p, rows)
	}
}

// TestParetoOracleTiesAndSpecials: exact-tie duplicates, signed zeros
// (-0 equals +0 on every objective) and non-finite rows mixed into one
// stream.
func TestParetoOracleTiesAndSpecials(t *testing.T) {
	negZero := math.Copysign(0, -1)
	iters := []float64{negZero, 0, 1, 2, 2, math.Inf(1), math.NaN()}
	comms := []float64{negZero, 0, 0.5, 0.5, 1, math.Inf(-1)}
	mems := []float64{negZero, 0, 1e9, 1e9, 2e9, math.Inf(1)}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		rows := make([]Row, rng.Intn(200)+1)
		for i := range rows {
			rows[i] = Row{
				Index:    int64(i),
				IterTime: units.Seconds(iters[rng.Intn(len(iters))]),
				CommFrac: comms[rng.Intn(len(comms))],
				MemBytes: units.Bytes(mems[rng.Intn(len(mems))]),
			}
		}
		p := NewPareto()
		emitAll(t, p, rows)
		checkFrontier(t, fmt.Sprintf("trial %d", trial), p, rows)
	}
}

// TestParetoEmitAfterClose: a reducer that is closed (its frontier
// packed, its points dropped) mid-stream keeps reducing correctly.
func TestParetoEmitAfterClose(t *testing.T) {
	rows := frontierGrid(rand.New(rand.NewSource(19)), 150, 30)
	p := NewPareto()
	half := len(rows) / 2
	emitAll(t, p, rows[:half])
	if err := p.Close(Trailer{}); err != nil {
		t.Fatal(err)
	}
	if len(p.store) != p.Size() || cap(p.store) != len(p.store) {
		t.Fatalf("after Close the store holds %d rows (capacity %d), want exactly Size() = %d",
			len(p.store), cap(p.store), p.Size())
	}
	emitAll(t, p, rows[half:])
	checkFrontier(t, "emit after close", p, rows)
}

// emitAll feeds rows to s in order, failing the test on an Emit error.
func emitAll(t *testing.T, s Sink, rows []Row) {
	t.Helper()
	for _, r := range rows {
		if err := s.Emit(r); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzParetoOracle decodes bytes into rows with coarse objectives (so
// ties and dominance are frequent) and a few signed-zero and non-finite
// values, then holds the reducer to the brute-force oracle. A second
// reducer sees the same rows with memory classes arriving in the
// reverse order, is closed halfway (its frontier packed, its points
// rebuilt by the next Emit), and must keep the same frontier.
func FuzzParetoOracle(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 1, 2, 2, 2})
	f.Add([]byte{5, 1, 3, 5, 1, 3, 0, 4, 4, 4, 0, 0})
	f.Add([]byte{250, 3, 1, 2, 251, 4, 3, 2, 252, 253, 254, 255})
	// 40 exact ties, then a row that dominates them all: the dead rows
	// outnumber the live one and the store is compacted.
	f.Add(append(bytes.Repeat([]byte{5, 5, 5}, 40), 0, 0, 0))
	// Two shapes under five scenarios, scenario-major and ascending in
	// speed: each scenario shortens both IterTimes and raises both
	// CommFracs, so every row joins its class at the fast end.
	var ascending []byte
	for s := byte(0); s < 5; s++ {
		ascending = append(ascending, 5-s, s, 2, 4-s, s, 3)
	}
	f.Add(ascending)
	f.Fuzz(func(t *testing.T, data []byte) {
		negZero := math.Copysign(0, -1)
		decode := func(b byte, scale float64) float64 {
			switch b {
			case 250:
				return negZero
			case 251:
				return math.Inf(1)
			case 252:
				return math.Inf(-1)
			case 253:
				return math.NaN()
			}
			return float64(b%6) * scale
		}
		// The oracle is quadratic: keep inputs to a few hundred rows.
		if len(data) > 3*300 {
			data = data[:3*300]
		}
		var rows []Row
		for i := 0; i+2 < len(data); i += 3 {
			rows = append(rows, Row{
				Index:    int64(len(rows)),
				IterTime: units.Seconds(decode(data[i], 0.25)),
				CommFrac: decode(data[i+1], 0.2),
				MemBytes: units.Bytes(decode(data[i+2], 1e9)),
			})
		}
		p := NewPareto()
		emitAll(t, p, rows)
		checkFrontier(t, "fuzz", p, rows)

		reversed := append([]Row(nil), rows...)
		sort.SliceStable(reversed, func(i, j int) bool { return reversed[i].MemBytes > reversed[j].MemBytes })
		q := NewPareto()
		half := len(reversed) / 2
		emitAll(t, q, reversed[:half])
		if err := q.Close(Trailer{}); err != nil {
			t.Fatal(err)
		}
		emitAll(t, q, reversed[half:])
		diffRows(t, "classes in reverse order", q.Frontier(), p.Frontier())
	})
}

// TestTopKOracle checks the bounded heap against sorting the full
// materialized grid.
func TestTopKOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	check := func(label string, rows []Row, k int) {
		t.Helper()
		tk, err := NewTopK(k)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if err := tk.Emit(r); err != nil {
				t.Fatal(err)
			}
		}
		oracle := append([]Row(nil), rows...)
		sort.Slice(oracle, func(i, j int) bool { return betterRow(oracle[i], oracle[j]) })
		if len(oracle) > k {
			oracle = oracle[:k]
		}
		diffRows(t, fmt.Sprintf("%s (n=%d k=%d)", label, len(rows), k), tk.Best(), oracle)
	}
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(300) + 1
		k := rng.Intn(20) + 1
		check(fmt.Sprintf("trial %d", trial), randomGrid(rng, n), k)
	}
	// k >= n: every row is kept, none displaced.
	for _, k := range []int{40, 41, 64} {
		check("k>=n", randomGrid(rng, 40), k)
	}
	// One IterTime for the whole stream, arriving out of index order:
	// the grid index alone decides which rows join and which leave.
	same := randomGrid(rng, 200)
	for i := range same {
		same[i].IterTime = 0.25
	}
	rng.Shuffle(len(same), func(i, j int) { same[i], same[j] = same[j], same[i] })
	for _, k := range []int{1, 7, 199, 200} {
		check("equal IterTime", same, k)
	}
}

func TestTopKRejectsBadK(t *testing.T) {
	if _, err := NewTopK(0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := NewTopK(-3); err == nil {
		t.Fatal("k=-3 accepted")
	}
}

// interleavedGrid builds rows whose every axis takes 24 values, more
// than marginalScan, revisited out of order: each row keeps an axis'
// previous value three times in four and otherwise jumps to a random
// one, so the last-hit, scan and map lookups all run.
func interleavedGrid(rng *rand.Rand, n int) []Row {
	const values = 24
	pick := func(prev, unit int) int {
		if prev != 0 && rng.Intn(4) > 0 {
			return prev
		}
		return unit * (1 + rng.Intn(values))
	}
	rows := make([]Row, n)
	var r Row
	for i := range rows {
		if r.Evo == "" || rng.Intn(4) == 0 {
			r.Evo = fmt.Sprintf("scenario-%02d", rng.Intn(values))
		}
		r.H, r.SL, r.B, r.TP = pick(r.H, 256), pick(r.SL, 512), pick(r.B, 1), pick(r.TP, 2)
		r.Index = int64(i)
		r.IterTime = units.Seconds(rng.Float64())
		r.CommFrac = rng.Float64()
		r.MemBytes = units.Bytes(1e9 * (1 + rng.Float64()))
		rows[i] = r
	}
	return rows
}

// TestMarginalsOracle checks the online accumulators against a
// materialized group-by over the same rows. Both sum each group in row
// order, so the means must agree to the bit.
func TestMarginalsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	t.Run("random", func(t *testing.T) { checkMarginals(t, randomGrid(rng, 400)) })
	t.Run("interleaved", func(t *testing.T) { checkMarginals(t, interleavedGrid(rng, 3000)) })
}

// checkMarginals closes the reducer halfway through rows, so the
// lookups it drops on Close are rebuilt by the Emits after it.
func checkMarginals(t *testing.T, rows []Row) {
	t.Helper()
	m := NewMarginals()
	half := len(rows) / 2
	emitAll(t, m, rows[:half])
	if err := m.Close(Trailer{}); err != nil {
		t.Fatal(err)
	}
	emitAll(t, m, rows[half:])

	// Materialized oracle: group rows by each axis, compute the stats
	// from the full slices.
	groupBy := func(key func(Row) string) map[string][]Row {
		g := make(map[string][]Row)
		for _, r := range rows {
			k := key(r)
			g[k] = append(g[k], r)
		}
		return g
	}
	oracles := map[string]map[string][]Row{
		"evo": groupBy(func(r Row) string { return r.Evo }),
		"H":   groupBy(func(r Row) string { return fmt.Sprint(r.H) }),
		"SL":  groupBy(func(r Row) string { return fmt.Sprint(r.SL) }),
		"B":   groupBy(func(r Row) string { return fmt.Sprint(r.B) }),
		"TP":  groupBy(func(r Row) string { return fmt.Sprint(r.TP) }),
	}

	axes := m.Axes()
	if len(axes) != 5 {
		t.Fatalf("got %d axes, want 5", len(axes))
	}
	order := []string{"evo", "H", "SL", "B", "TP"}
	for i, ax := range axes {
		if ax.Axis != order[i] {
			t.Fatalf("axis %d = %q, want %q", i, ax.Axis, order[i])
		}
		oracle := oracles[ax.Axis]
		if len(ax.Values) != len(oracle) {
			t.Fatalf("axis %s: %d values, oracle has %d groups", ax.Axis, len(ax.Values), len(oracle))
		}
		if !sort.SliceIsSorted(ax.Values, func(i, j int) bool {
			// Int axes sort numerically; evo sorts lexically. Either way the
			// rendered order must be deterministic and monotonic.
			if ax.Axis == "evo" {
				return ax.Values[i].Value < ax.Values[j].Value
			}
			return atoiMust(t, ax.Values[i].Value) < atoiMust(t, ax.Values[j].Value)
		}) {
			t.Fatalf("axis %s values not sorted: %+v", ax.Axis, ax.Values)
		}
		for _, v := range ax.Values {
			group, ok := oracle[v.Value]
			if !ok {
				t.Fatalf("axis %s: unexpected value %q", ax.Axis, v.Value)
			}
			if v.Count != int64(len(group)) {
				t.Fatalf("axis %s value %s: count %d, oracle %d", ax.Axis, v.Value, v.Count, len(group))
			}
			var sumComm, sumIter float64
			minComm, maxComm := math.Inf(1), math.Inf(-1)
			for _, r := range group {
				sumComm += r.CommFrac
				sumIter += float64(r.IterTime)
				minComm = math.Min(minComm, r.CommFrac)
				maxComm = math.Max(maxComm, r.CommFrac)
			}
			wantMean := sumComm / float64(len(group))
			if math.Float64bits(v.MeanCommFrac) != math.Float64bits(wantMean) {
				t.Fatalf("axis %s value %s: mean comm %g, oracle %g", ax.Axis, v.Value, v.MeanCommFrac, wantMean)
			}
			if math.Abs(v.MinCommFrac-minComm) > 0 || math.Abs(v.MaxCommFrac-maxComm) > 0 {
				t.Fatalf("axis %s value %s: min/max %g/%g, oracle %g/%g",
					ax.Axis, v.Value, v.MinCommFrac, v.MaxCommFrac, minComm, maxComm)
			}
			wantIter := sumIter / float64(len(group))
			if math.Float64bits(float64(v.MeanIterTime)) != math.Float64bits(wantIter) {
				t.Fatalf("axis %s value %s: mean iter %g, oracle %g", ax.Axis, v.Value, float64(v.MeanIterTime), wantIter)
			}
		}
	}
}

func atoiMust(t *testing.T, s string) int {
	t.Helper()
	var n int
	if _, err := fmt.Sscanf(s, "%d", &n); err != nil {
		t.Fatalf("non-numeric axis value %q", s)
	}
	return n
}

// TestMarginalsSpread: a synthetic grid where TP alone moves the comm
// fraction must rank TP's spread above an axis that does not move it.
func TestMarginalsSpread(t *testing.T) {
	m := NewMarginals()
	i := int64(0)
	for _, tp := range []int{8, 64} {
		for _, h := range []int{1024, 4096} {
			cf := 0.2
			if tp == 64 {
				cf = 0.8
			}
			err := m.Emit(Row{Index: i, Evo: "base", H: h, SL: 2048, B: 1, TP: tp,
				IterTime: 0.01, CommFrac: cf, MemBytes: 1e9})
			if err != nil {
				t.Fatal(err)
			}
			i++
		}
	}
	var tpSpread, hSpread float64
	for _, ax := range m.Axes() {
		switch ax.Axis {
		case "TP":
			tpSpread = ax.Spread()
		case "H":
			hSpread = ax.Spread()
		}
	}
	if tpSpread < 0.59 || tpSpread > 0.61 {
		t.Fatalf("TP spread = %g, want 0.6", tpSpread)
	}
	if hSpread > 1e-12 {
		t.Fatalf("H spread = %g, want 0", hSpread)
	}
}

// TestReducersBoundedMemory: reducers attached to a long stream retain
// O(K + frontier + axis-values) rows, not O(n).
func TestReducersBoundedMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	tk, err := NewTopK(10)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPareto()
	m := NewMarginals()
	sink := Multi(p, tk, m)
	const n = 20000
	for _, r := range randomGrid(rng, n) {
		if err := sink.Emit(r); err != nil {
			t.Fatal(err)
		}
		checkStoreBound(t, fmt.Sprintf("row %d", r.Index), p)
	}
	if len(tk.heap) != 10 {
		t.Fatalf("top-k retained %d rows", len(tk.heap))
	}
	// The quantized objective space has at most 8*10*6 distinct vectors;
	// the frontier is far smaller than the stream.
	if p.Size() > 480 {
		t.Fatalf("frontier retained %d rows from a %d-row stream", p.Size(), n)
	}
}

// TestReducerEmitAllocFree pins the reducers' per-row Emit at zero
// allocations over each benchmark's stream, starting from an empty
// reducer: the frontier and the heap grow by amortized appends, never
// once per row.
func TestReducerEmitAllocFree(t *testing.T) {
	tk, err := NewTopK(32)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		bench string
		sink  Sink
		rows  []Row
	}{
		{"ParetoEmit", NewPareto(), randomGrid(rand.New(rand.NewSource(1)), 4096)},
		{"ParetoEmitFrontier", NewPareto(), frontierGrid(rand.New(rand.NewSource(1)), 150, 55)},
		{"TopKEmit", tk, randomGrid(rand.New(rand.NewSource(2)), 4096)},
		{"MarginalsEmit", NewMarginals(), frontierGrid(rand.New(rand.NewSource(1)), 150, 55)},
	} {
		i := 0
		// One pass over the stream: AllocsPerRun's warm-up call emits
		// the first row.
		if avg := testing.AllocsPerRun(len(tc.rows)-1, func() {
			if err := tc.sink.Emit(tc.rows[i]); err != nil {
				t.Fatal(err)
			}
			i++
		}); avg > 0 {
			t.Errorf("Benchmark%s body allocates %.1f objects/row, want 0", tc.bench, avg)
		}
	}
}

func BenchmarkParetoEmit(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	rows := randomGrid(rng, 4096)
	p := NewPareto()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Emit(rows[i%len(rows)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParetoEmitFrontier measures Emit where real grids put it: a
// correlated ~150-class stream whose frontier grows to thousands of
// rows. Each pass over the stream starts from an empty reducer, so the
// frontier stays the stream's own rather than accreting exact-tie
// copies of itself across passes.
func BenchmarkParetoEmitFrontier(b *testing.B) {
	rows := frontierGrid(rand.New(rand.NewSource(1)), 150, 55)
	p := NewPareto()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(rows) == 0 && i > 0 {
			b.StopTimer()
			p = NewPareto()
			b.StartTimer()
		}
		if err := p.Emit(rows[i%len(rows)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMarginalsEmit measures Emit over the same correlated stream:
// 55 named scenarios, evolution-major, and 150 shapes whose TP changes
// every row.
func BenchmarkMarginalsEmit(b *testing.B) {
	rows := frontierGrid(rand.New(rand.NewSource(1)), 150, 55)
	m := NewMarginals()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Emit(rows[i%len(rows)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchReducers is the search workload's reducer stage: one
// op is a pass of the correlated stream through Multi(TopK(10), Pareto,
// Marginals), fresh reducers each pass and Close at its end. ns/row is
// the cost a streamed row pays for the three digests.
func BenchmarkSearchReducers(b *testing.B) {
	rows := frontierGrid(rand.New(rand.NewSource(1)), 150, 55)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk, err := NewTopK(10)
		if err != nil {
			b.Fatal(err)
		}
		sink := Multi(tk, NewPareto(), NewMarginals())
		for _, r := range rows {
			if err := sink.Emit(r); err != nil {
				b.Fatal(err)
			}
		}
		if err := sink.Close(Trailer{Rows: int64(len(rows)), Total: int64(len(rows)), Complete: true}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rows)), "ns/row")
}

func BenchmarkTopKEmit(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	rows := randomGrid(rng, 4096)
	tk, err := NewTopK(32)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tk.Emit(rows[i%len(rows)]); err != nil {
			b.Fatal(err)
		}
	}
}
