package stream

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"twocs/internal/units"
)

// refJSONFloat is the reference float encoding: strconv's shortest 'g'
// form, or null for NaN and ±Inf. It calls strconv directly, so the
// reference stays independent of the encoder under test.
func refJSONFloat(b []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return append(b, "null"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// referenceRow is the straight-line row encoder NDJSON.Emit memoizes:
// every field encoded afresh on every row, every float by strconv. The
// memoized encoder must write the same bytes for every row sequence.
func referenceRow(b []byte, r Row) []byte {
	b = append(b, `{"i":`...)
	b = strconv.AppendInt(b, r.Index, 10)
	b = append(b, `,"evo":`...)
	b = appendJSONString(b, r.Evo)
	b = append(b, `,"flopbw":`...)
	b = refJSONFloat(b, r.FlopVsBW)
	b = append(b, `,"h":`...)
	b = strconv.AppendInt(b, int64(r.H), 10)
	b = append(b, `,"sl":`...)
	b = strconv.AppendInt(b, int64(r.SL), 10)
	b = append(b, `,"b":`...)
	b = strconv.AppendInt(b, int64(r.B), 10)
	b = append(b, `,"tp":`...)
	b = strconv.AppendInt(b, int64(r.TP), 10)
	b = append(b, `,"iter_s":`...)
	b = refJSONFloat(b, float64(r.IterTime))
	b = append(b, `,"comm_frac":`...)
	b = refJSONFloat(b, r.CommFrac)
	b = append(b, `,"mem_bytes":`...)
	b = refJSONFloat(b, float64(r.MemBytes))
	if !r.Finite() {
		b = append(b, `,"canceled":true`...)
	}
	return append(b, '}', '\n')
}

// emitBoth writes rows through a fresh NDJSON sink and through
// referenceRow, and fails on the first line where they differ.
func emitBoth(t *testing.T, rows []Row) []byte {
	t.Helper()
	var got bytes.Buffer
	s := NewNDJSON(&got)
	var want []byte
	for _, r := range rows {
		if err := s.Emit(r); err != nil {
			t.Fatal(err)
		}
		want = referenceRow(want, r)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := range wl {
			if i >= len(gl) || gl[i] != wl[i] {
				t.Fatalf("line %d differs from the reference encoder\n got: %s\nwant: %s", i, gl[min(i, len(gl)-1)], wl[i])
			}
		}
		t.Fatalf("memoized encoder wrote %d bytes, reference %d", got.Len(), len(want))
	}
	return want
}

// specialFloats are the float64 values whose shortest forms and JSON
// encodings are edge cases: NaN, ±Inf, −0, subnormals, 1e±300 and the
// longest shortest forms (which do not fit a memo slot).
var specialFloats = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	5e-324, -5e-324, 2.2250738585072009e-308, math.MaxFloat64, math.SmallestNonzeroFloat64,
	1e300, -1e300, 1e-300, -1e-300, -1.2345678901234567e-300, 1.2345678901234567e+300,
	1, 0.25, 2.56233472e+08, 1 << 30, 12e9,
}

// collidingMems returns n distinct mem_bytes values that share one memo
// slot, so that alternating them evicts on every row.
func collidingMems(n int) []float64 {
	slot := func(v float64) uint64 { return (math.Float64bits(v) * 0x9e3779b97f4a7c15) >> (64 - memSlotBits) }
	out := []float64{1 << 20}
	for v := float64(1<<20) + 4096; len(out) < n; v += 4096 {
		if slot(v) == slot(out[0]) {
			out = append(out, v)
		}
	}
	return out
}

// evoNames mixes plain scenario names with ones that need escaping.
var evoNames = []string{
	"1x", "2x flop-vs-bw", "4x flop-vs-bw", "", `4x "flop,vs\bw"`,
	"tab\there", "nl\nand\rcr", "ctl\x01\x1f", "ünïcode ✓",
}

// randomRows draws a row sequence in runs of one (evo, flopbw)
// scenario, as a sweep emits them, but with names and ratios reused
// across scenarios: equal flopbw under different names, and the same
// name under different flopbw.
func randomRows(rng *rand.Rand, n int) []Row {
	pick := func(pool []float64) float64 { return pool[rng.Intn(len(pool))] }
	ratios := append([]float64{1, 2, 4, 1.5}, specialFloats...)
	mems := append(collidingMems(3), specialFloats...)
	for i := 0; i < 8; i++ {
		mems = append(mems, float64(rng.Int63n(1<<40)))
	}
	objective := func() float64 {
		if rng.Intn(8) == 0 {
			return pick(specialFloats)
		}
		return rng.ExpFloat64()
	}
	rows := make([]Row, 0, n)
	var evo string
	var ratio float64
	for i := 0; i < n; i++ {
		if i == 0 || rng.Intn(6) == 0 {
			evo, ratio = evoNames[rng.Intn(len(evoNames))], pick(ratios)
		}
		r := Row{
			Index: int64(i), Evo: evo, FlopVsBW: ratio,
			H: 1024 << rng.Intn(7), SL: 1024 << rng.Intn(4), B: 1, TP: 4 << rng.Intn(7),
			IterTime: units.Seconds(objective()), CommFrac: objective(),
			MemBytes: units.Bytes(pick(mems)),
		}
		if rng.Intn(10) == 0 {
			r = canceledRow(r.Index)
		}
		rows = append(rows, r)
	}
	return rows
}

// TestNDJSONMatchesReference is the differential test of the memoized
// encoder: random row sequences, special floats, escaped names,
// colliding memo slots and canceled rows all encode exactly as the
// straight-line reference does.
func TestNDJSONMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		emitBoth(t, randomRows(rng, 1+rng.Intn(300)))
	}
}

// TestNDJSONMemoEdges pins the memo edges one at a time: the same
// flopbw under two names, one name under two flopbw values (including
// −0 against 0, which compare equal but encode differently), two
// mem_bytes values alternating in one slot, and a value too long for a
// slot.
func TestNDJSONMemoEdges(t *testing.T) {
	negZero := math.Copysign(0, -1)
	c := collidingMems(2)
	long := -1.2345678901234567e-300
	base := sampleRows()[0]
	var rows []Row
	add := func(evo string, ratio, mem float64) {
		r := base
		r.Index, r.Evo, r.FlopVsBW, r.MemBytes = int64(len(rows)), evo, ratio, units.Bytes(mem)
		rows = append(rows, r)
	}
	add("a", 2, c[0])
	add("b", 2, c[1])
	add("b", 4, c[0])
	add("b", 0, c[1])
	add("b", negZero, long)
	add("b", 0, long)
	add("a", negZero, c[0])
	out := emitBoth(t, rows)
	for _, want := range []string{`"flopbw":-0,`, `"flopbw":0,`, strconv.FormatFloat(long, 'g', -1, 64)} {
		if !bytes.Contains(out, []byte(want)) {
			t.Errorf("output lacks %s", want)
		}
	}
}

// FuzzNDJSONEmit drives the encoder with arbitrary names and floats in
// a row pattern that hits and misses both memos. Every line must match
// the reference encoder and be valid JSON.
func FuzzNDJSONEmit(f *testing.F) {
	f.Add("1x", "2x flop-vs-bw", 1.0, 2.0, 0.012, 0.25, 1e9, 2.5e9)
	f.Add(`q"\`, "ctl\x00\x7f", math.NaN(), math.Inf(-1), math.Inf(1), 5e-324, math.Copysign(0, -1), -1.2345678901234567e-300)
	f.Fuzz(func(t *testing.T, evo1, evo2 string, flop1, flop2, iter, comm, mem1, mem2 float64) {
		row := func(i int, evo string, flop, mem float64) Row {
			return Row{Index: int64(i), Evo: evo, FlopVsBW: flop, H: 1024, SL: 2048, B: 1, TP: 8,
				IterTime: units.Seconds(iter), CommFrac: comm, MemBytes: units.Bytes(mem)}
		}
		rows := []Row{
			row(0, evo1, flop1, mem1), row(1, evo1, flop1, mem2), row(2, evo2, flop1, mem1),
			row(3, evo2, flop2, mem2), row(4, evo1, flop2, mem1), row(5, evo1, flop1, mem1),
		}
		out := emitBoth(t, rows)
		for _, line := range bytes.SplitAfter(out, []byte("\n")) {
			if len(line) > 0 && !json.Valid(line) {
				t.Fatalf("invalid JSON line: %q", line)
			}
		}
	})
}

// table3Shapes is the Table-3 (H, SL, TP) grid at B=1, keeping the
// points whose TP divides the head count H/64 and the width 4H.
func table3Shapes() [][3]int {
	var out [][3]int
	for h := 1024; h <= 65536; h *= 2 {
		for sl := 1024; sl <= 8192; sl *= 2 {
			for tp := 4; tp <= 256; tp *= 2 {
				if (h/64)%tp == 0 && (4*h)%tp == 0 {
					out = append(out, [3]int{h, sl, tp})
				}
			}
		}
	}
	return out
}

// gridRows is a sweep-shaped stream: scenarios × the 156 Table-3
// shapes, evolution-major, with a footprint per shape and unique
// iteration times and fractions per row, so memo hits and misses occur
// at a real sweep's rate.
func gridRows() []Row {
	const scenarios = 20
	shapes := table3Shapes()
	rng := rand.New(rand.NewSource(1))
	rows := make([]Row, 0, scenarios*len(shapes))
	for s := 0; s < scenarios; s++ {
		ratio := 1 + 3*float64(s)/(scenarios-1)
		evo := strconv.FormatFloat(ratio, 'g', -1, 64) + "x flop-vs-bw"
		for _, sh := range shapes {
			h, sl, tp := sh[0], sh[1], sh[2]
			// Weights, gradients and optimizer state of one layer split
			// over TP, plus activations: integral bytes, distinct per shape.
			mem := float64(16*12*h*h/tp + 34*sl*h/tp)
			rows = append(rows, Row{
				Index: int64(len(rows)), Evo: evo, FlopVsBW: ratio, H: h, SL: sl, B: 1, TP: tp,
				IterTime: units.Seconds(rng.Float64()), CommFrac: rng.Float64(), MemBytes: units.Bytes(mem),
			})
		}
	}
	return rows
}

// BenchmarkNDJSONEmitGrid is the per-row serialization cost over
// gridRows (BenchmarkNDJSONEmit re-emits one row, always a memo hit).
func BenchmarkNDJSONEmitGrid(b *testing.B) {
	rows := gridRows()
	s := NewNDJSON(io.Discard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Emit(rows[i%len(rows)]); err != nil {
			b.Fatal(err)
		}
	}
}
