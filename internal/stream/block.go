package stream

import "io"

// blockSize is the size of every write a row sink makes but its last.
const blockSize = 1 << 16

// blockSlack is the room past blockSize that rows are encoded into
// before the full block goes out: a row this long or shorter never
// grows the buffer.
const blockSlack = 4 << 10

// blockWriter is the output buffer of the row sinks. A sink encodes
// each row straight onto b; end then writes every full blockSize
// prefix and moves the tail to the front, so each write but the last
// is exactly 64 KB — the writes a 64 KB bufio.Writer makes for rows
// shorter than a block — and no row is copied on its way out.
//
// A write error is sticky: it is kept in err, the sinks return it from
// the failing call and every later one, and nothing more is written.
type blockWriter struct {
	w   io.Writer
	b   []byte // the bytes not yet written
	err error
}

func newBlockWriter(w io.Writer) blockWriter {
	return blockWriter{w: w, b: make([]byte, 0, blockSize+blockSlack)}
}

// end takes b, the buffer with one more row appended, and writes the
// full blocks it holds.
func (k *blockWriter) end(b []byte) error {
	k.b = b
	if len(b) < blockSize {
		return nil
	}
	return k.spill()
}

// spill writes blockSize bytes at a time while a full block is held.
func (k *blockWriter) spill() error {
	for k.err == nil && len(k.b) >= blockSize {
		k.write(k.b[:blockSize])
		k.b = k.b[:copy(k.b, k.b[blockSize:])]
	}
	return k.err
}

// flush writes every pending byte: the full blocks, then the rest.
func (k *blockWriter) flush() error {
	if k.spill() == nil && len(k.b) > 0 {
		k.write(k.b)
		k.b = k.b[:0]
	}
	return k.err
}

// write hands p to the destination and records a failed or short
// write as the sticky error.
func (k *blockWriter) write(p []byte) {
	//lint:ignore hotalloc the destination is the caller's writer; the allocation gates measure Emit over io.Discard
	n, err := k.w.Write(p)
	if err == nil && n < len(p) {
		err = io.ErrShortWrite
	}
	k.err = err
}
