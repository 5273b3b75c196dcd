package stream

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// csvHeader is the fixed column order of the CSV sink.
const csvHeader = "i,evo,flopbw,h,sl,b,tp,iter_s,comm_frac,mem_bytes\n"

// CSV serializes a stream as RFC-4180 CSV with a fixed header, one row
// per grid point, and a final `#trailer` comment line carrying the
// stream's completion status — so a truncated sweep still yields a
// parseable file that says it is truncated. Like NDJSON, the emit path
// reuses one scratch buffer and performs no steady-state allocations.
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
	w         *bufio.Writer
	buf       []byte
	headerOut bool
}

// NewCSV returns a CSV sink over w. The caller keeps ownership of w;
// Close flushes but does not close it.
func NewCSV(w io.Writer) *CSV {
	return &CSV{w: bufio.NewWriterSize(w, 1<<16)}
}

func (c *CSV) ensureHeader() error {
	if c.headerOut {
		return nil
	}
	c.headerOut = true
	_, err := c.w.WriteString(csvHeader)
	return err
}

// Emit implements Sink.
//
//lint:hotpath
func (c *CSV) Emit(r Row) error {
	if err := c.ensureHeader(); err != nil {
		return err
	}
	b := c.buf[:0]
	b = appendUint(b, r.Index)
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
	b = append(b, '\n')
	c.buf = b
	_, err := c.w.Write(b)
	return err
}

// Close implements Sink: it writes the `#trailer` comment line and
// flushes. An empty stream still gets its header, so downstream tooling
// always sees the schema.
func (c *CSV) Close(t Trailer) error {
	if err := c.ensureHeader(); err != nil {
		return err
	}
	b := c.buf[:0]
	b = append(b, "#trailer rows="...)
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
	b = append(b, '\n')
	c.buf = b
	if _, err := c.w.Write(b); err != nil {
		return err
	}
	return c.w.Flush()
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
