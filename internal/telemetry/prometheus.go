package telemetry

import (
	"fmt"
	"io"
	"strings"
)

// Prometheus text-exposition rendering of the live metrics — the
// /metrics endpoint of the debug server. Counters map directly; the
// pow2 histograms render as Prometheus histograms (cumulative le
// buckets + _sum/_count) with the p50/p95/p99 estimates alongside as
// gauges. Output order follows the snapshot's sorted
// sections, so a scrape is deterministic for deterministic metrics.

// PromName converts a dotted metric name to a Prometheus-legal one:
// "parallel.stream.rows" -> "twocs_parallel_stream_rows". Every byte
// outside [a-zA-Z0-9_:] becomes '_'.
func PromName(name string) string {
	var b strings.Builder
	b.Grow(len("twocs_") + len(name))
	b.WriteString("twocs_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c >= '0' && c <= '9', c == '_', c == ':':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus renders the snapshot in the Prometheus text
// exposition format (version 0.0.4).
func (s Snapshot) WritePrometheus(w io.Writer) error {
	for _, cv := range s.Counters {
		name := PromName(cv.Name)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, cv.Value); err != nil {
			return err
		}
	}
	for _, hv := range s.Histograms {
		name := PromName(hv.Name)
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
			return err
		}
		var cum int64
		for _, b := range hv.Buckets {
			cum += b.Count
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, b.Hi, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
			name, hv.Count, name, hv.Sum, name, hv.Count); err != nil {
			return err
		}
		if hv.Quantiled {
			if _, err := fmt.Fprintf(w, "# TYPE %s_p50 gauge\n%s_p50 %d\n# TYPE %s_p95 gauge\n%s_p95 %d\n# TYPE %s_p99 gauge\n%s_p99 %d\n",
				name, name, hv.P50, name, name, hv.P95, name, name, hv.P99); err != nil {
				return err
			}
		}
	}
	return nil
}

// WritePrometheus renders the runtime reading as gauges under the
// twocs_runtime_ prefix.
func (r RuntimeStats) WritePrometheus(w io.Writer) error {
	_, err := fmt.Fprintf(w,
		"# TYPE twocs_runtime_heap_alloc_bytes gauge\ntwocs_runtime_heap_alloc_bytes %d\n"+
			"# TYPE twocs_runtime_heap_sys_bytes gauge\ntwocs_runtime_heap_sys_bytes %d\n"+
			"# TYPE twocs_runtime_goroutines gauge\ntwocs_runtime_goroutines %d\n"+
			"# TYPE twocs_runtime_gc_cycles_total counter\ntwocs_runtime_gc_cycles_total %d\n"+
			"# TYPE twocs_runtime_gc_pause_ns_total counter\ntwocs_runtime_gc_pause_ns_total %d\n",
		r.HeapAllocBytes, r.HeapSysBytes, r.Goroutines, r.GCCycles, int64(r.GCPauseTotal))
	return err
}

// WritePrometheus renders the progress snapshot as gauges under the
// twocs_progress_ prefix, one worker-labelled series per busy tally.
func (ps ProgressSnapshot) WritePrometheus(w io.Writer) error {
	b01 := func(v bool) int {
		if v {
			return 1
		}
		return 0
	}
	if _, err := fmt.Fprintf(w,
		"# TYPE twocs_progress_total gauge\ntwocs_progress_total %d\n"+
			"# TYPE twocs_progress_rows gauge\ntwocs_progress_rows %d\n"+
			"# TYPE twocs_progress_chunks gauge\ntwocs_progress_chunks %d\n"+
			"# TYPE twocs_progress_elapsed_seconds gauge\ntwocs_progress_elapsed_seconds %g\n"+
			"# TYPE twocs_progress_rows_per_sec gauge\ntwocs_progress_rows_per_sec %g\n"+
			"# TYPE twocs_progress_eta_seconds gauge\ntwocs_progress_eta_seconds %g\n"+
			"# TYPE twocs_progress_done gauge\ntwocs_progress_done %d\n"+
			"# TYPE twocs_progress_complete gauge\ntwocs_progress_complete %d\n",
		ps.Total, ps.Rows, ps.Chunks, ps.Elapsed.Seconds(), ps.RowsPerSec,
		ps.ETA.Seconds(), b01(ps.Done), b01(ps.Complete)); err != nil {
		return err
	}
	if len(ps.Workers) > 0 {
		if _, err := fmt.Fprintf(w, "# TYPE twocs_progress_worker_busy_seconds gauge\n"); err != nil {
			return err
		}
		for _, wu := range ps.Workers {
			if _, err := fmt.Fprintf(w, "twocs_progress_worker_busy_seconds{worker=\"%d\"} %g\n",
				wu.Worker, wu.Busy.Seconds()); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE twocs_progress_worker_utilization gauge\n"); err != nil {
			return err
		}
		for _, wu := range ps.Workers {
			if _, err := fmt.Fprintf(w, "twocs_progress_worker_utilization{worker=\"%d\"} %g\n",
				wu.Worker, wu.Utilization); err != nil {
				return err
			}
		}
	}
	return nil
}
