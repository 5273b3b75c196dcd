package stream

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"
)

// recordWriter keeps the size and bytes of every write. Its failAt-th
// write (counting from 1; 0 for never) and every later one fail with
// errWrite; with short set, writes report one byte fewer than given.
type recordWriter struct {
	sizes  []int
	data   bytes.Buffer
	failAt int
	short  bool
}

var errWrite = errors.New("disk full")

func (w *recordWriter) Write(p []byte) (int, error) {
	w.sizes = append(w.sizes, len(p))
	if w.failAt > 0 && len(w.sizes) >= w.failAt {
		return 0, errWrite
	}
	if w.short {
		p = p[:len(p)-1]
	}
	w.data.Write(p)
	return len(p), nil
}

// checkBlocks fails unless every write but the last is exactly one
// block and the last is no larger.
func checkBlocks(t *testing.T, w *recordWriter) {
	t.Helper()
	for i, n := range w.sizes {
		if n > blockSize || n < blockSize && i < len(w.sizes)-1 {
			t.Fatalf("write %d of %d is %d bytes, want %d", i+1, len(w.sizes), n, blockSize)
		}
	}
}

// rowSink is a row writer with its straight-line reference encoder and
// the header it writes before the rows.
type rowSink struct {
	name string
	open func(io.Writer) Sink
	row  func([]byte, Row) []byte
	head string
}

var rowSinks = []rowSink{
	{"NDJSON", func(w io.Writer) Sink { return NewNDJSON(w) }, referenceRow, ""},
	{"CSV", func(w io.Writer) Sink { return NewCSV(w) }, referenceCSVRow, csvHeader},
}

// reference returns what the sink writes for rows and then t: its
// header, the rows by the reference encoder, and the trailer an empty
// stream of the sink ends with.
func (s rowSink) reference(rows []Row, t Trailer) []byte {
	var empty bytes.Buffer
	if err := s.open(&empty).Close(t); err != nil {
		panic(err)
	}
	want := []byte(s.head)
	for _, r := range rows {
		want = s.row(want, r)
	}
	return append(want, empty.Bytes()[len(s.head):]...)
}

// streamRows writes rows and a complete trailer through a fresh sink
// of s, and fails unless every write but the last is one whole block
// and the bytes are the reference's.
func streamRows(t *testing.T, s rowSink, rows []Row) *recordWriter {
	t.Helper()
	tr := Trailer{Rows: int64(len(rows)), Total: int64(len(rows)), Complete: true}
	w := new(recordWriter)
	sink := s.open(w)
	for _, r := range rows {
		if err := sink.Emit(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(tr); err != nil {
		t.Fatal(err)
	}
	checkBlocks(t, w)
	if want := s.reference(rows, tr); !bytes.Equal(w.data.Bytes(), want) {
		t.Fatalf("%s wrote %d bytes that differ from the reference's %d", s.name, w.data.Len(), len(want))
	}
	return w
}

// TestBlockWrites streams a sweep-shaped grid of several blocks through
// both sinks, and some block boundary falls inside a row.
func TestBlockWrites(t *testing.T) {
	for _, s := range rowSinks {
		w := streamRows(t, s, gridRows())
		if len(w.sizes) < 4 {
			t.Fatalf("%s: %d writes, want a stream of several blocks", s.name, len(w.sizes))
		}
		straddle := false
		for k := blockSize; k < w.data.Len(); k += blockSize {
			straddle = straddle || w.data.Bytes()[k-1] != '\n'
		}
		if !straddle {
			t.Fatalf("%s: no row straddles a block boundary", s.name)
		}
	}
}

// TestBlockLongName: a row with a 100 KB scenario name, longer than a
// block, between ordinary rows comes out intact, and the writes stay
// whole blocks.
func TestBlockLongName(t *testing.T) {
	name := strings.Repeat("flop,vs-bw ", 100<<10/11)
	rows := sampleRows()
	rows[1].Evo = name
	rows = append(rows, rows...)
	for _, s := range rowSinks {
		w := streamRows(t, s, rows)
		if s.name != "NDJSON" {
			continue
		}
		var got wireRow
		line := bytes.Split(w.data.Bytes(), []byte("\n"))[1]
		if err := json.Unmarshal(line, &got); err != nil || got.Evo != name {
			t.Fatalf("the 100 KB name did not round-trip (err %v, %d bytes back)", err, len(got.Evo))
		}
	}
}

// TestBlockWriteErrorSticky: when the destination fails its k-th write,
// the Emit that made that write returns the error, and so does every
// later Emit and Close, with no further write. A short write fails the
// same way, with io.ErrShortWrite. A failure on Close's own write is
// sticky too.
func TestBlockWriteErrorSticky(t *testing.T) {
	rows := gridRows()
	for _, s := range rowSinks {
		for _, tc := range []struct {
			name string
			w    recordWriter
			rows []Row
			want error
		}{
			{"first write", recordWriter{failAt: 1}, rows, errWrite},
			{"third write", recordWriter{failAt: 3}, rows, errWrite},
			{"short write", recordWriter{short: true}, rows, io.ErrShortWrite},
			{"close", recordWriter{failAt: 1}, rows[:10], errWrite},
		} {
			w := tc.w
			sink := s.open(&w)
			failed := -1
			for i, r := range tc.rows {
				err := sink.Emit(r)
				if failed < 0 && err != nil {
					failed = i
				}
				if failed >= 0 && err != tc.want {
					t.Fatalf("%s %s: Emit of row %d returned %v, want %v", s.name, tc.name, i, err, tc.want)
				}
			}
			if failed < 0 && len(w.sizes) > 0 {
				t.Fatalf("%s %s: no Emit failed, after %d writes", s.name, tc.name, len(w.sizes))
			}
			calls := len(w.sizes)
			for range 2 {
				if err := sink.Close(Trailer{}); err != tc.want {
					t.Fatalf("%s %s: Close returned %v, want %v", s.name, tc.name, err, tc.want)
				}
			}
			if failed >= 0 && len(w.sizes) != calls {
				t.Fatalf("%s %s: %d writes after the failed one", s.name, tc.name, len(w.sizes)-calls)
			}
			if wantCalls := max(tc.w.failAt, 1); len(w.sizes) != wantCalls {
				t.Fatalf("%s %s: %d writes, want %d", s.name, tc.name, len(w.sizes), wantCalls)
			}
		}
	}
}
