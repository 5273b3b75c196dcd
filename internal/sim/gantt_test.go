package sim

import (
	"encoding/json"
	"strings"
	"testing"
)

func ganttTrace(t *testing.T) *Trace {
	t.Helper()
	ops := []Op{
		{ID: "g1", Device: 0, Stream: ComputeStream, Duration: 5, Label: "compute"},
		{ID: "ar", Device: 0, Stream: CommStream, Duration: 3, Deps: []string{"g1"}, Label: "tp-allreduce"},
		{ID: "g2", Device: 0, Stream: ComputeStream, Duration: 5, Deps: []string{"ar"}, Label: "compute"},
		{ID: "dp", Device: 0, Stream: DPCommStream, Duration: 2, Deps: []string{"g2"}, Label: "dp-allreduce"},
	}
	tr, err := runOps(ops, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestRenderGantt(t *testing.T) {
	tr := ganttTrace(t)
	var b strings.Builder
	if err := tr.RenderGantt(&b, 40); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"compute", "comm", "dp-comm", "#", "=", "~"} {
		if !strings.Contains(out, want) {
			t.Errorf("gantt missing %q:\n%s", want, out)
		}
	}
	// Three stream rows plus axis.
	if lines := strings.Count(out, "\n"); lines != 4 {
		t.Errorf("gantt has %d lines:\n%s", lines, out)
	}
}

func TestRenderGanttEdgeCases(t *testing.T) {
	empty := &Trace{}
	var b strings.Builder
	if err := empty.RenderGantt(&b, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "empty") {
		t.Error("empty trace not flagged")
	}
	tr := ganttTrace(t)
	if err := tr.RenderGantt(&b, 3); err == nil {
		t.Error("tiny width accepted")
	}
}

func TestCriticalPath(t *testing.T) {
	tr := ganttTrace(t)
	path, byLabel := tr.CriticalPath()
	if len(path) != 4 {
		t.Fatalf("critical path has %d steps, want 4: %+v", len(path), path)
	}
	order := []string{"g1", "ar", "g2", "dp"}
	for i, want := range order {
		if path[i].Span.Op.ID != want {
			t.Errorf("step %d = %s, want %s", i, path[i].Span.Op.ID, want)
		}
		if path[i].Wait != 0 {
			t.Errorf("step %d has wait %v, want 0 on a serialized chain", i, path[i].Wait)
		}
	}
	if byLabel["compute"] != 10 || byLabel["tp-allreduce"] != 3 || byLabel["dp-allreduce"] != 2 {
		t.Errorf("label breakdown = %v", byLabel)
	}
}

func TestCriticalPathSkipsHiddenComm(t *testing.T) {
	// Comm fully hidden under compute must not appear on the critical
	// path.
	ops := []Op{
		{ID: "big", Device: 0, Stream: ComputeStream, Duration: 10, Label: "compute"},
		{ID: "dp", Device: 0, Stream: DPCommStream, Duration: 3, Label: "dp-allreduce"},
		{ID: "next", Device: 0, Stream: ComputeStream, Duration: 2, Label: "compute"},
	}
	tr, err := runOps(ops, Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, byLabel := tr.CriticalPath()
	if byLabel["dp-allreduce"] != 0 {
		t.Errorf("hidden DP comm on the critical path: %v", byLabel)
	}
	if byLabel["compute"] != 12 {
		t.Errorf("compute on path = %v, want 12", byLabel["compute"])
	}
}

func TestCriticalPathEmptyTrace(t *testing.T) {
	empty := &Trace{}
	path, byLabel := empty.CriticalPath()
	if path != nil || byLabel != nil {
		t.Error("empty trace should yield nil path")
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := ganttTrace(t)
	var b strings.Builder
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{`"ph":"X"`, `"name":"g1"`, `"cat":"tp-allreduce"`,
		`"process_name"`, `"thread_name"`} {
		if !strings.Contains(out, want) {
			t.Errorf("chrome trace missing %s:\n%s", want, out)
		}
	}
	// Must be valid JSON.
	var parsed []map[string]any
	if err := jsonUnmarshal(out, &parsed); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	// 4 spans + 2 meta events per (device,stream) pair (3 pairs).
	if len(parsed) != 4+6 {
		t.Errorf("event count = %d, want 10", len(parsed))
	}
}

// jsonUnmarshal avoids importing encoding/json at the top for one test.
func jsonUnmarshal(s string, v any) error { return json.Unmarshal([]byte(s), v) }
