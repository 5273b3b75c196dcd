//go:build unix

package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"twocs/internal/telemetry"
)

// cpuTime is the CPU time the process has used so far, user and
// system, across all threads: server and client both, since the
// benchmark runs them in one process.
func cpuTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// BenchmarkSweepHTTP streams the Table-3 grid under 200 scenarios
// (31,200 rows) over /v1/sweep on a TCP connection, with telemetry on as
// twocsd runs it, and reports rows per CPU second of the whole process.
// Every row is a memo hit after the first request, so emission, NDJSON
// encoding, writes and HTTP chunking set the pace.
func BenchmarkSweepHTTP(b *testing.B) {
	a, err := sharedAnalyzer()
	if err != nil {
		b.Fatal(err)
	}
	col := telemetry.NewCollector()
	telemetry.Enable(col)
	defer telemetry.Enable(nil)
	cfg := DefaultConfig()
	cfg.Rate = 0 // admission off: back-to-back sweeps would drain the token bucket
	ts := httptest.NewServer(New(a, cfg, col, nil).Handler())
	defer ts.Close()

	ratios := make([]string, 200)
	for i := range ratios {
		ratios[i] = strconv.FormatFloat(1+float64(i)/100, 'g', -1, 64)
	}
	body := `{"flopbw":[` + strings.Join(ratios, ",") + `]}`
	sweep := func(w io.Writer) {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		n, err := io.Copy(w, resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("sweep: %s, %d bytes, %v", resp.Status, n, err)
		}
	}
	// The first request prices the grid's tasks; its body gives the row
	// count (every line but the trailer).
	var first bytes.Buffer
	sweep(&first)
	rows := int64(bytes.Count(first.Bytes(), []byte("\n")) - 1)
	b.ResetTimer()
	cpu0 := cpuTime(b)
	for i := 0; i < b.N; i++ {
		sweep(io.Discard)
	}
	cpu := cpuTime(b) - cpu0
	b.StopTimer()
	b.SetBytes(int64(first.Len()))
	b.ReportMetric(float64(rows*int64(b.N))/cpu.Seconds(), "rows/cpu_s")
}
