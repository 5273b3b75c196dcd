package stream

import (
	"io"
	"strconv"
	"strings"
)

// csvHeader is the fixed column order of the CSV sink.
const csvHeader = "i,evo,flopbw,h,sl,b,tp,iter_s,comm_frac,mem_bytes\n"

// CSV serializes a stream as RFC-4180 CSV with a fixed header, one row
// per grid point, and a final `#trailer` comment line carrying the
// stream's completion status — so a truncated sweep still yields a
// parseable file that says it is truncated. Like NDJSON, each row is
// encoded straight into the sink's write block, and the emit path
// performs no steady-state allocations.
//
// Canceled-row contract: CSV has no NaN literal either, and emitting the
// Go formatting "NaN" would round-trip as a string through most readers.
// A canceled (back-filled) grid point therefore writes its non-finite
// iter_s/comm_frac/mem_bytes as empty fields — the CSV convention for
// "missing" — keeping its coordinate columns, and the trailer comment
// carries `canceled=N` so the truncation is counted, not silent. Every
// float column goes through appendCSVFloat, so a non-finite flopbw,
// which no producer emits, is an empty field too; finite values are in
// appendFloat's shortest form, the bytes of strconv's 'g', -1.
type CSV struct {
	out blockWriter
}

// NewCSV returns a CSV sink over w, its header already in the write
// block, so even an empty stream gives downstream tooling the schema.
// The caller keeps ownership of w; Close flushes but does not close it.
func NewCSV(w io.Writer) *CSV {
	c := &CSV{out: newBlockWriter(w)}
	c.out.b = append(c.out.b, csvHeader...)
	return c
}

// Emit implements Sink.
//
//lint:hotpath
func (c *CSV) Emit(r Row) error {
	if c.out.err != nil {
		return c.out.err
	}
	b := appendUint(c.out.b, r.Index)
	b = append(b, ',')
	b = appendCSVField(b, r.Evo)
	b = append(b, ',')
	b = appendCSVFloat(b, r.FlopVsBW)
	b = append(b, ',')
	b = appendUint(b, int64(r.H))
	b = append(b, ',')
	b = appendUint(b, int64(r.SL))
	b = append(b, ',')
	b = appendUint(b, int64(r.B))
	b = append(b, ',')
	b = appendUint(b, int64(r.TP))
	b = append(b, ',')
	b = appendCSVFloat(b, float64(r.IterTime))
	b = append(b, ',')
	b = appendCSVFloat(b, r.CommFrac)
	b = append(b, ',')
	b = appendCSVFloat(b, float64(r.MemBytes))
	return c.out.end(append(b, '\n'))
}

// Close implements Sink: it writes the `#trailer` comment line and
// flushes.
func (c *CSV) Close(t Trailer) error {
	b := append(c.out.b, "#trailer rows="...)
	b = appendUint(b, t.Rows)
	b = append(b, " total="...)
	b = appendUint(b, t.Total)
	if t.Canceled > 0 {
		b = append(b, " canceled="...)
		b = appendUint(b, t.Canceled)
	}
	b = append(b, " complete="...)
	b = strconv.AppendBool(b, t.Complete)
	if t.Reason != "" {
		b = append(b, " reason="...)
		// The trailer is one line by construction; fold any newlines in
		// an error message into spaces.
		b = append(b, strings.NewReplacer("\n", " ", "\r", " ").Replace(t.Reason)...)
	}
	c.out.b = append(b, '\n')
	return c.out.flush()
}

// appendCSVFloat appends v in shortest-float form (appendFloat), or
// nothing — an empty field, the CSV convention for a missing value —
// when v is NaN or ±Inf (a canceled, back-filled grid point).
func appendCSVFloat(b []byte, v float64) []byte {
	if nonFinite(v) {
		return b
	}
	return appendFloat(b, v)
}

// appendCSVField appends s, quoting per RFC 4180 (doubled quotes) when
// it contains a comma, quote, CR or LF.
func appendCSVField(b []byte, s string) []byte {
	if !strings.ContainsAny(s, ",\"\r\n") {
		return append(b, s...)
	}
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		if s[i] == '"' {
			b = append(b, '"', '"')
		} else {
			b = append(b, s[i])
		}
	}
	return append(b, '"')
}
