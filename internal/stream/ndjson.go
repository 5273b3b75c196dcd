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
// Two kinds of row segment repeat, and Emit encodes each distinct value
// once: the `,"evo":…,"flopbw":…` segment is constant over a scenario's
// rows (a sweep emits them evolution-major), and the
// `,"h":…,"sl":…,"b":…,"tp":…,"iter_s":` and `,"mem_bytes":…` segments
// are functions of the model shape, so a sweep re-encodes the same few
// hundred values. Both memos key on exact values (float bit patterns
// for the floats), so the bytes do not depend on hits or misses — only
// the speed depends on row order.
type NDJSON struct {
	w   *bufio.Writer
	buf []byte

	// evoSeg is the last row's encoded `,"evo":…,"flopbw":…` segment,
	// valid for (evo, evoBits) whenever it is non-empty.
	evo     string
	evoBits uint64
	evoSeg  []byte

	// seg is the scratch a shape memo miss encodes into; it keeps the
	// segments of a shape too long for a slot.
	seg    []byte
	shapes [shapeSlots]shapeSlot
}

// shapeSlots sizes the shape memo: 64 KB, as large as the write buffer.
// A key lives in the slot its shape hashes to or in that slot's
// neighbour (index ^ 1), and a miss evicts from the hashed slot only
// when both are taken. Of the 156 shapes of a Table-3 sweep, 6 evict
// each other on every scenario, so one row in 26 misses.
const (
	shapeSlotBits = 9
	shapeSlots    = 1 << shapeSlotBits
)

// shapeSlot memoizes the two shape segments of one (H, SL, B, TP,
// mem_bytes) key in text: the head `,"h":…,"iter_s":` in text[:nHead]
// and `,"mem_bytes":…` after it. 86 bytes hold both whenever the four
// ints and the mem_bytes value take at most 41 characters together; a
// longer pair is encoded directly on every row.
type shapeSlot struct {
	h, sl, b, tp int
	mem          uint64
	nHead, nMem  uint8 // text lengths; nHead == 0 marks an empty slot
	text         [86]byte
}

func (s *shapeSlot) holds(r *Row, mem uint64) bool {
	return s.nHead > 0 && s.mem == mem && s.h == r.H && s.sl == r.SL && s.b == r.B && s.tp == r.TP
}

func (s *shapeSlot) segs() (head, mem []byte) {
	return s.text[:s.nHead], s.text[s.nHead : s.nHead+s.nMem]
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
	b = appendUint(b, r.Index)
	if bits := math.Float64bits(r.FlopVsBW); len(n.evoSeg) == 0 || bits != n.evoBits || r.Evo != n.evo {
		n.evoSeg = append(n.evoSeg[:0], `,"evo":`...)
		n.evoSeg = appendJSONString(n.evoSeg, r.Evo)
		n.evoSeg = append(n.evoSeg, `,"flopbw":`...)
		n.evoSeg = appendJSONFloat(n.evoSeg, r.FlopVsBW)
		n.evo, n.evoBits = r.Evo, bits
	}
	b = append(b, n.evoSeg...)
	head, mem := n.shapeSegs(&r)
	b = append(b, head...)
	b = appendJSONFloat(b, float64(r.IterTime))
	b = append(b, `,"comm_frac":`...)
	b = appendJSONFloat(b, r.CommFrac)
	b = append(b, mem...)
	if !r.Finite() {
		b = append(b, `,"canceled":true`...)
	}
	b = append(b, '}', '\n')
	n.buf = b
	_, err := n.w.Write(b)
	return err
}

// shapeSlotOf hashes a shape to its memo slot: a multiply-xor chain
// over the four ints, whose top bits pick the slot (Fibonacci hashing).
func shapeSlotOf(h, sl, b, tp int) uint64 {
	const k = 0x9e3779b97f4a7c15
	x := uint64(h) * k
	x = (x ^ uint64(sl)) * k
	x = (x ^ uint64(b)) * k
	x = (x ^ uint64(tp)) * k
	return x >> (64 - shapeSlotBits)
}

// shapeSegs returns r's `,"h":…,"iter_s":` and `,"mem_bytes":…`
// segments from the memo when one of its two slots holds r's key. On a
// miss it encodes them and caches the text if it fits.
func (n *NDJSON) shapeSegs(r *Row) (head, mem []byte) {
	bits := math.Float64bits(float64(r.MemBytes))
	i := shapeSlotOf(r.H, r.SL, r.B, r.TP)
	s, alt := &n.shapes[i], &n.shapes[i^1]
	if s.holds(r, bits) {
		return s.segs()
	}
	if alt.holds(r, bits) {
		return alt.segs()
	}
	n.seg = append(n.seg[:0], `,"h":`...)
	t := appendUint(n.seg, int64(r.H))
	t = append(t, `,"sl":`...)
	t = appendUint(t, int64(r.SL))
	t = append(t, `,"b":`...)
	t = appendUint(t, int64(r.B))
	t = append(t, `,"tp":`...)
	t = appendUint(t, int64(r.TP))
	t = append(t, `,"iter_s":`...)
	split := len(t)
	t = append(t, `,"mem_bytes":`...)
	t = appendJSONFloat(t, float64(r.MemBytes))
	n.seg = t
	if len(t) > len(s.text) {
		return t[:split], t[split:]
	}
	if s.nHead > 0 && alt.nHead == 0 {
		s = alt
	}
	s.h, s.sl, s.b, s.tp, s.mem = r.H, r.SL, r.B, r.TP, bits
	s.nHead, s.nMem = uint8(split), uint8(len(t)-split)
	copy(s.text[:], t)
	return s.segs()
}

// Close implements Sink: it writes the trailer object and flushes.
func (n *NDJSON) Close(t Trailer) error {
	b := n.buf[:0]
	b = append(b, `{"trailer":true,"rows":`...)
	b = appendUint(b, t.Rows)
	b = append(b, `,"total":`...)
	b = appendUint(b, t.Total)
	if t.Canceled > 0 {
		b = append(b, `,"canceled":`...)
		b = appendUint(b, t.Canceled)
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
