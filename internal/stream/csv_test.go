package stream

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// refCSVFloat is the reference CSV float encoding: strconv's shortest
// 'g' form, or an empty field for NaN and ±Inf.
func refCSVFloat(b []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return b
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// referenceCSVRow is the straight-line row encoder CSV.Emit must match:
// every integer and float by strconv, the name quoted per RFC 4180
// whenever it holds a comma, quote, CR or LF.
func referenceCSVRow(b []byte, r Row) []byte {
	b = strconv.AppendInt(b, r.Index, 10)
	b = append(b, ',')
	if strings.ContainsAny(r.Evo, ",\"\r\n") {
		b = append(b, '"')
		b = append(b, strings.ReplaceAll(r.Evo, `"`, `""`)...)
		b = append(b, '"')
	} else {
		b = append(b, r.Evo...)
	}
	b = append(b, ',')
	b = refCSVFloat(b, r.FlopVsBW)
	for _, v := range []int{r.H, r.SL, r.B, r.TP} {
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(v), 10)
	}
	for _, v := range []float64{float64(r.IterTime), r.CommFrac, float64(r.MemBytes)} {
		b = append(b, ',')
		b = refCSVFloat(b, v)
	}
	return append(b, '\n')
}

// referenceCSVTrailer is the straight-line `#trailer` comment line.
func referenceCSVTrailer(b []byte, t Trailer) []byte {
	b = append(b, "#trailer rows="+strconv.FormatInt(t.Rows, 10)+" total="+strconv.FormatInt(t.Total, 10)...)
	if t.Canceled > 0 {
		b = append(b, " canceled="+strconv.FormatInt(t.Canceled, 10)...)
	}
	b = append(b, " complete="+strconv.FormatBool(t.Complete)...)
	if t.Reason != "" {
		b = append(b, " reason="+strings.NewReplacer("\n", " ", "\r", " ").Replace(t.Reason)...)
	}
	return append(b, '\n')
}

// TestCSVMatchesReference is the differential test of the CSV sink:
// random rows with edge indices, names that need quoting, special
// floats and canceled rows, then a trailer, encode exactly as the
// straight-line reference does.
func TestCSVMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	trailers := []Trailer{
		{Rows: 3, Total: 3, Complete: true},
		{Rows: 1e16, Total: math.MaxInt64, Canceled: 1e8, Reason: "deadline\nexceeded"},
		{Rows: -1, Total: 0, Canceled: -1, Reason: "canceled"},
	}
	for trial := 0; trial < 200; trial++ {
		rows := randomRows(rng, rng.Intn(300))
		tr := trailers[trial%len(trailers)]
		var got bytes.Buffer
		s := NewCSV(&got)
		want := []byte(csvHeader)
		for _, r := range rows {
			if err := s.Emit(r); err != nil {
				t.Fatal(err)
			}
			want = referenceCSVRow(want, r)
		}
		if err := s.Close(tr); err != nil {
			t.Fatal(err)
		}
		want = referenceCSVTrailer(want, tr)
		if !bytes.Equal(got.Bytes(), want) {
			gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
			for i := range wl {
				if i >= len(gl) || gl[i] != wl[i] {
					t.Fatalf("trial %d line %d differs from the reference encoder\n got: %q\nwant: %q", trial, i, gl[min(i, len(gl)-1)], wl[i])
				}
			}
			t.Fatalf("trial %d: CSV wrote %d bytes, reference %d", trial, got.Len(), len(want))
		}
	}
}
