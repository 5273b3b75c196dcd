package stream

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"twocs/internal/units"
)

func sampleRows() []Row {
	return []Row{
		{Index: 0, Evo: "1x", FlopVsBW: 1, H: 1024, SL: 1024, B: 1, TP: 4,
			IterTime: 0.012, CommFrac: 0.25, MemBytes: 1 << 30},
		{Index: 1, Evo: `4x "flop,vs\bw"`, FlopVsBW: 4, H: 65536, SL: 8192, B: 4, TP: 256,
			IterTime: 1.5, CommFrac: 0.75, MemBytes: 12e9},
		{Index: 2, Evo: "2x", FlopVsBW: 2, H: 2048, SL: 2048, B: 1, TP: 8,
			IterTime: 0.034, CommFrac: 0.5, MemBytes: 2.5e9},
	}
}

// wireRow and wireTrailer are the NDJSON lines as encoding/json reads
// them. Null objectives (canceled rows) decode as nil pointers.
type wireRow struct {
	I        int64    `json:"i"`
	Evo      string   `json:"evo"`
	FlopBW   float64  `json:"flopbw"`
	H        int      `json:"h"`
	SL       int      `json:"sl"`
	B        int      `json:"b"`
	TP       int      `json:"tp"`
	IterS    *float64 `json:"iter_s"`
	CommFrac *float64 `json:"comm_frac"`
	MemBytes *float64 `json:"mem_bytes"`
	Canceled bool     `json:"canceled"`
}

type wireTrailer struct {
	Trailer  bool   `json:"trailer"`
	Rows     int64  `json:"rows"`
	Total    int64  `json:"total"`
	Canceled int64  `json:"canceled"`
	Complete bool   `json:"complete"`
	Reason   string `json:"reason"`
}

// sameBits reports whether a decoded objective round-trips the emitted
// float bit for bit; a canceled (NaN) objective must decode as null.
func sameBits(got *float64, want float64) bool {
	if math.IsNaN(want) {
		return got == nil
	}
	return got != nil && math.Float64bits(*got) == math.Float64bits(want)
}

// TestNDJSONRoundTrip decodes every written line with encoding/json and
// requires the row coordinates, the objectives bit for bit (the
// writer's shortest-float encoding must round-trip exactly) and the
// trailer back. The cases cover non-integral floats, canceled rows with
// null objectives, and a trailer reason that needs escaping.
func TestNDJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	fractional := randomGrid(rng, 200)
	for i := range fractional {
		fractional[i].FlopVsBW = 1 + rng.Float64()*3
		fractional[i].IterTime = units.Seconds(rng.Float64() * 123.456e-3)
		fractional[i].CommFrac = rng.Float64()
		fractional[i].MemBytes = units.Bytes(rng.Float64() * 68e9)
	}
	canceled := withCanceled(rng, randomGrid(rng, 120), 80)
	cases := []struct {
		name    string
		rows    []Row
		trailer Trailer
	}{
		{"sample", sampleRows(), Trailer{Rows: 3, Total: 3, Complete: true}},
		{"fractional", fractional, Trailer{Rows: 200, Total: 200, Complete: true}},
		{"canceled", canceled, Trailer{Rows: 200, Total: 200, Canceled: 80, Reason: "deadline exceeded"}},
		{"escaped-reason", nil, Trailer{Total: 200, Reason: "killed: signal \"TERM\"\tat C:\\run\n"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			s := NewNDJSON(&buf)
			for _, r := range tc.rows {
				if err := s.Emit(r); err != nil {
					t.Fatalf("Emit: %v", err)
				}
			}
			if err := s.Close(tc.trailer); err != nil {
				t.Fatalf("Close: %v", err)
			}
			lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
			if len(lines) != len(tc.rows)+1 {
				t.Fatalf("got %d lines, want %d rows + trailer", len(lines), len(tc.rows))
			}
			for i, r := range tc.rows {
				var got wireRow
				if err := json.Unmarshal([]byte(lines[i]), &got); err != nil {
					t.Fatalf("line %d is not valid JSON: %v\n%s", i, err, lines[i])
				}
				coords := wireRow{I: r.Index, Evo: r.Evo, H: r.H, SL: r.SL, B: r.B, TP: r.TP, Canceled: !r.Finite()}
				gotCoords := got
				gotCoords.FlopBW, gotCoords.IterS, gotCoords.CommFrac, gotCoords.MemBytes = 0, nil, nil, nil
				if gotCoords != coords {
					t.Errorf("line %d: coordinates diverged: got %+v, want %+v", i, gotCoords, coords)
				}
				if math.Float64bits(got.FlopBW) != math.Float64bits(r.FlopVsBW) ||
					!sameBits(got.IterS, float64(r.IterTime)) ||
					!sameBits(got.CommFrac, r.CommFrac) ||
					!sameBits(got.MemBytes, float64(r.MemBytes)) {
					t.Errorf("line %d: floats do not round-trip bit-exactly\n%s\nwant %+v", i, lines[i], r)
				}
			}
			var got wireTrailer
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
				t.Fatalf("trailer is not valid JSON: %v", err)
			}
			tr := tc.trailer
			want := wireTrailer{Trailer: true, Rows: tr.Rows, Total: tr.Total, Canceled: tr.Canceled, Complete: tr.Complete, Reason: tr.Reason}
			if got != want {
				t.Fatalf("trailer = %+v, want %+v", got, want)
			}
		})
	}
}

// orNaN maps a decoded null objective back to the NaN a canceled row
// carries in memory.
func orNaN(v *float64) float64 {
	if v == nil {
		return math.NaN()
	}
	return *v
}

// TestParseNDJSONRoundTrip: parse every line of a written artifact with
// encoding/json and re-serialize through a fresh writer — the bytes must
// be identical. Any consumer that reads a sweep back and re-emits it
// (a filter, a concatenation) reproduces the original artifact byte for
// byte, including non-integral floats, canceled rows and escaped
// trailer reasons.
func TestParseNDJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	rows := withCanceled(rng, randomGrid(rng, 200), 25)
	for i := range rows {
		if i%3 == 0 && rows[i].Finite() {
			rows[i].CommFrac = rng.Float64()
			rows[i].IterTime = units.Seconds(rng.Float64() * 123.456e-3)
			rows[i].MemBytes = units.Bytes(rng.Float64() * 68e9)
		}
	}
	for _, tr := range []Trailer{
		{Rows: 225, Total: 225, Complete: true},
		{Rows: 225, Total: 300, Canceled: 25, Complete: false, Reason: "deadline exceeded"},
		{Rows: 0, Total: 200, Complete: false, Reason: `killed: signal "TERM"` + "\tat C:\\run\n"},
	} {
		var art bytes.Buffer
		w := NewNDJSON(&art)
		for _, r := range rows {
			if err := w.Emit(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(tr); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSuffix(art.String(), "\n"), "\n")
		if len(lines) != len(rows)+1 {
			t.Fatalf("artifact has %d lines, want %d", len(lines), len(rows)+1)
		}

		var out bytes.Buffer
		re := NewNDJSON(&out)
		for li, line := range lines[:len(rows)] {
			var p wireRow
			if err := json.Unmarshal([]byte(line), &p); err != nil {
				t.Fatalf("line %d: %v", li, err)
			}
			r := Row{Index: p.I, Evo: p.Evo, FlopVsBW: p.FlopBW, H: p.H, SL: p.SL, B: p.B, TP: p.TP,
				IterTime: units.Seconds(orNaN(p.IterS)), CommFrac: orNaN(p.CommFrac), MemBytes: units.Bytes(orNaN(p.MemBytes))}
			if err := re.Emit(r); err != nil {
				t.Fatal(err)
			}
		}
		var pt wireTrailer
		if err := json.Unmarshal([]byte(lines[len(rows)]), &pt); err != nil {
			t.Fatalf("trailer: %v", err)
		}
		if !pt.Trailer {
			t.Fatalf("last line is not a trailer: %s", lines[len(rows)])
		}
		if err := re.Close(Trailer{Rows: pt.Rows, Total: pt.Total, Canceled: pt.Canceled, Complete: pt.Complete, Reason: pt.Reason}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), art.Bytes()) {
			t.Fatalf("parse→re-serialize is not byte-identical (trailer %+v)", tr)
		}
	}
}

// TestNDJSONPartialTrailer: an aborted stream still ends with a
// well-formed trailer saying so.
func TestNDJSONPartialTrailer(t *testing.T) {
	var buf bytes.Buffer
	s := NewNDJSON(&buf)
	if err := s.Emit(sampleRows()[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(Trailer{Rows: 1, Total: 1_000_000, Complete: false, Reason: "canceled"}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	var trailer map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &trailer); err != nil {
		t.Fatalf("trailer not valid JSON: %v", err)
	}
	if trailer["complete"] != false || trailer["reason"] != "canceled" ||
		trailer["total"].(float64) != 1_000_000 {
		t.Fatalf("bad partial trailer: %v", trailer)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := NewCSV(&buf)
	rows := sampleRows()
	for _, r := range rows {
		if err := s.Emit(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(Trailer{Rows: 3, Total: 3, Complete: true}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasSuffix(out, "#trailer rows=3 total=3 complete=true\n") {
		t.Fatalf("missing trailer line:\n%s", out)
	}
	body := strings.TrimSuffix(out, "#trailer rows=3 total=3 complete=true\n")
	rd := csv.NewReader(strings.NewReader(body))
	recs, err := rd.ReadAll()
	if err != nil {
		t.Fatalf("CSV does not parse: %v", err)
	}
	if len(recs) != len(rows)+1 {
		t.Fatalf("got %d records, want header + %d rows", len(recs), len(rows))
	}
	if strings.Join(recs[0], ",")+"\n" != csvHeader {
		t.Fatalf("header = %v", recs[0])
	}
	// The quoted evo value with comma, quote and backslash survives.
	if recs[2][1] != rows[1].Evo {
		t.Fatalf("evo round-trip: %q != %q", recs[2][1], rows[1].Evo)
	}
}

// TestCSVEmptyStream: header and trailer appear even with zero rows.
func TestCSVEmptyStream(t *testing.T) {
	var buf bytes.Buffer
	s := NewCSV(&buf)
	if err := s.Close(Trailer{Rows: 0, Total: 10, Complete: false, Reason: "canceled"}); err != nil {
		t.Fatal(err)
	}
	want := csvHeader + "#trailer rows=0 total=10 complete=false reason=canceled\n"
	if buf.String() != want {
		t.Fatalf("got:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestMultiFanOut(t *testing.T) {
	var a, b Discard
	var buf bytes.Buffer
	m := Multi(&a, NewNDJSON(&buf), &b)
	for _, r := range sampleRows() {
		if err := m.Emit(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(Trailer{Rows: 3, Total: 3, Complete: true}); err != nil {
		t.Fatal(err)
	}
	if a.Rows != 3 || b.Rows != 3 {
		t.Fatalf("fan-out lost rows: %d, %d", a.Rows, b.Rows)
	}
	if got := strings.Count(buf.String(), "\n"); got != 4 {
		t.Fatalf("NDJSON leg wrote %d lines, want 4", got)
	}
}

// TestEmitAllocFree pins the serialization hot path: steady-state Emit
// on both writers performs zero allocations, the property that makes
// peak RSS independent of grid size. The inputs are the streams of
// BenchmarkNDJSONEmit (one row, re-emitted) and BenchmarkNDJSONEmitGrid
// (sweep-shaped rows, so the float memo misses at a real sweep's rate).
func TestEmitAllocFree(t *testing.T) {
	for _, in := range []struct {
		name string
		rows []Row
	}{
		{"one row", sampleRows()[:1]},
		{"grid", gridRows()},
	} {
		for _, w := range []struct {
			name string
			sink Sink
		}{
			{"NDJSON", NewNDJSON(io.Discard)},
			{"CSV", NewCSV(io.Discard)},
		} {
			emit := func(r Row) {
				if err := w.sink.Emit(r); err != nil {
					t.Fatal(err)
				}
			}
			// Warm up: a first pass sizes the scratch buffers (and CSV
			// header).
			for _, r := range in.rows {
				emit(r)
			}
			i := 0
			if avg := testing.AllocsPerRun(max(200, len(in.rows)), func() {
				emit(in.rows[i%len(in.rows)])
				i++
			}); avg > 0 {
				t.Errorf("%s.Emit over %s allocates %.1f objects/row, want 0", w.name, in.name, avg)
			}
		}
	}
}

func TestDiscardTrailerMismatch(t *testing.T) {
	var d Discard
	if err := d.Emit(Row{}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(Trailer{Rows: 2, Total: 2, Complete: true}); err == nil {
		t.Fatal("trailer/row-count mismatch not detected")
	}
}

// BenchmarkNDJSONEmit is the per-row serialization cost of the
// streaming sweep's default sink.
func BenchmarkNDJSONEmit(b *testing.B) {
	r := sampleRows()[0]
	s := NewNDJSON(io.Discard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Emit(r); err != nil {
			b.Fatal(err)
		}
	}
}

var _ = units.Seconds(0) // keep the units import with the sample rows
