package stream

import (
	"bufio"
	"io"
	"math"
	"strconv"
)

// NDJSON serializes a stream as newline-delimited JSON: one object per
// row plus a final trailer object. Row serialization reuses one scratch
// buffer, so the steady-state emit path performs no allocations —
// streaming 10⁷ rows costs the same heap as streaming 10².
//
// Output is byte-deterministic: fixed key order, every float in
// shortest form by appendFloat (the bytes of strconv's 'g', -1), no map
// iteration anywhere.
//
// Canceled-row contract: JSON has no NaN/Inf literal, so a back-filled
// canceled grid point (coordinates with NaN objectives) serializes its
// non-finite iter_s/comm_frac/mem_bytes as null and carries an explicit
// "canceled":true field — every emitted line is valid JSON for every
// downstream parser, complete run or not. A non-finite flopbw, which
// no producer emits, is written as null too.
//
// Two row segments repeat, and Emit encodes each distinct value once:
// the `,"evo":…,"flopbw":…` segment is constant over a scenario's rows
// (a sweep emits them evolution-major), and mem_bytes is a function of
// the model shape alone, so a sweep re-encodes the same few hundred
// values. Both memos key on exact float bit patterns, so the bytes do
// not depend on hits or misses — only the speed depends on row order.
type NDJSON struct {
	w   *bufio.Writer
	buf []byte

	// evoSeg is the last row's encoded `,"evo":…,"flopbw":…` segment,
	// valid for (evo, evoBits) whenever it is non-empty.
	evo     string
	evoBits uint64
	evoSeg  []byte

	mem [memSlots]memSlot
}

// memSlots sizes the direct-mapped mem_bytes memo: 64 KB, as large as
// the write buffer, which keeps slot collisions among a Table-3
// sweep's 156 distinct footprints to a few percent of rows.
const (
	memSlotBits = 11
	memSlots    = 1 << memSlotBits
)

// memSlot memoizes the encoding of one mem_bytes value. At 32 bytes a
// slot holds every shortest-form float up to 23 characters; a longer
// one (only a negative value with 17 significant digits and a
// three-digit exponent) is encoded directly on every row.
type memSlot struct {
	bits uint64
	n    uint8 // length of text; 0 marks an empty slot
	text [23]byte
}

// NewNDJSON returns an NDJSON sink over w. The caller keeps ownership
// of w; Close flushes but does not close it.
func NewNDJSON(w io.Writer) *NDJSON {
	return &NDJSON{w: bufio.NewWriterSize(w, 1<<16)}
}

// Emit implements Sink.
//
//lint:hotpath
func (n *NDJSON) Emit(r Row) error {
	b := n.buf[:0]
	b = append(b, `{"i":`...)
	b = strconv.AppendInt(b, r.Index, 10)
	if bits := math.Float64bits(r.FlopVsBW); len(n.evoSeg) == 0 || bits != n.evoBits || r.Evo != n.evo {
		n.evoSeg = append(n.evoSeg[:0], `,"evo":`...)
		n.evoSeg = appendJSONString(n.evoSeg, r.Evo)
		n.evoSeg = append(n.evoSeg, `,"flopbw":`...)
		n.evoSeg = appendJSONFloat(n.evoSeg, r.FlopVsBW)
		n.evo, n.evoBits = r.Evo, bits
	}
	b = append(b, n.evoSeg...)
	b = append(b, `,"h":`...)
	b = strconv.AppendInt(b, int64(r.H), 10)
	b = append(b, `,"sl":`...)
	b = strconv.AppendInt(b, int64(r.SL), 10)
	b = append(b, `,"b":`...)
	b = strconv.AppendInt(b, int64(r.B), 10)
	b = append(b, `,"tp":`...)
	b = strconv.AppendInt(b, int64(r.TP), 10)
	b = append(b, `,"iter_s":`...)
	b = appendJSONFloat(b, float64(r.IterTime))
	b = append(b, `,"comm_frac":`...)
	b = appendJSONFloat(b, r.CommFrac)
	b = append(b, `,"mem_bytes":`...)
	b = n.appendMem(b, float64(r.MemBytes))
	if !r.Finite() {
		b = append(b, `,"canceled":true`...)
	}
	b = append(b, '}', '\n')
	n.buf = b
	_, err := n.w.Write(b)
	return err
}

// appendMem appends v as appendJSONFloat would, from the memo slot its
// bit pattern hashes to (Fibonacci hashing) when that slot holds it.
// On a miss it encodes v directly and caches the text if it fits.
func (n *NDJSON) appendMem(b []byte, v float64) []byte {
	bits := math.Float64bits(v)
	s := &n.mem[(bits*0x9e3779b97f4a7c15)>>(64-memSlotBits)]
	if s.n > 0 && s.bits == bits {
		return append(b, s.text[:s.n]...)
	}
	start := len(b)
	b = appendJSONFloat(b, v)
	if enc := b[start:]; len(enc) <= len(s.text) {
		s.bits, s.n = bits, uint8(copy(s.text[:], enc))
	}
	return b
}

// Flush forces the buffered rows out to the underlying writer without
// closing the stream — the live-streaming hook the HTTP adapter uses so
// a slow sweep shows the client rows as they are computed, not one 64KB
// buffer at a time.
func (n *NDJSON) Flush() error { return n.w.Flush() }

// Close implements Sink: it writes the trailer object and flushes.
func (n *NDJSON) Close(t Trailer) error {
	b := n.buf[:0]
	b = append(b, `{"trailer":true,"rows":`...)
	b = strconv.AppendInt(b, t.Rows, 10)
	b = append(b, `,"total":`...)
	b = strconv.AppendInt(b, t.Total, 10)
	if t.Canceled > 0 {
		b = append(b, `,"canceled":`...)
		b = strconv.AppendInt(b, t.Canceled, 10)
	}
	b = append(b, `,"complete":`...)
	b = strconv.AppendBool(b, t.Complete)
	if t.Reason != "" {
		b = append(b, `,"reason":`...)
		b = appendJSONString(b, t.Reason)
	}
	b = append(b, '}', '\n')
	n.buf = b
	if _, err := n.w.Write(b); err != nil {
		return err
	}
	return n.w.Flush()
}

// appendJSONFloat appends v in shortest-float form (appendFloat), or
// the JSON null literal when v is NaN or ±Inf — which JSON cannot
// represent, and which the streaming layer defines as a canceled
// (back-filled) value.
func appendJSONFloat(b []byte, v float64) []byte {
	if nonFinite(v) {
		return append(b, "null"...)
	}
	return appendFloat(b, v)
}

// appendJSONString appends s as a JSON string literal, escaping quotes,
// backslashes and control characters. Scenario names and error reasons
// are ASCII in practice; non-ASCII bytes pass through verbatim, which
// is valid JSON for UTF-8 input.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c == '\n':
			b = append(b, '\\', 'n')
		case c == '\r':
			b = append(b, '\\', 'r')
		case c == '\t':
			b = append(b, '\\', 't')
		case c < 0x20:
			const hex = "0123456789abcdef"
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}
