package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCommandOutputDeterministic is the golden-output gate for the CLI:
// every reporting command must emit byte-identical text run-to-run and
// across worker counts. A diff here almost always means an unsorted map
// iteration or a scheduling-order dependence leaked into the report
// path — exactly the class of bug the detrange analyzer guards against
// statically. Running under `go test -race` (CI does) additionally
// checks the Workers>1 executions for data races.
func TestCommandOutputDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full sweeps; skipped in -short")
	}
	commands := [][]string{
		{"serialized", "-csv"},
		{"overlapped", "-csv"},
		{"serialized"},
		{"overlapped"},
		{"zoo", "-csv"},
		{"memory"},
	}
	for _, args := range commands {
		args := args
		t.Run(strings.Join(args, "_"), func(t *testing.T) {
			parallel4 := append([]string{"-workers", "4"}, args...)
			first := runCmd(t, parallel4...)
			second := runCmd(t, parallel4...)
			if first != second {
				t.Fatalf("two -workers=4 runs of %v differ:\n--- first ---\n%s\n--- second ---\n%s", args, first, second)
			}
			sequential := append([]string{"-workers", "1"}, args...)
			if seq := runCmd(t, sequential...); seq != first {
				t.Fatalf("-workers=1 and -workers=4 outputs of %v differ:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", args, seq, first)
			}
		})
	}
}

// TestObservabilityFlagsLeaveStdoutIdentical extends the golden gate to
// the telemetry layer: turning on -metrics and -trace must not perturb
// a subcommand's stdout by a single byte — telemetry goes to the trace
// file and the metrics sink only. The written trace must also be valid
// JSON (the Chrome trace-event array Perfetto loads), and the metrics
// dump must report the substrate cache's hit/miss counters.
func TestObservabilityFlagsLeaveStdoutIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full sweeps; skipped in -short")
	}
	plain := runCmd(t, "-workers", "4", "serialized")

	var metrics strings.Builder
	metricsSink = &metrics
	defer func() { metricsSink = os.Stderr }()
	tracePath := filepath.Join(t.TempDir(), "run.json")
	instrumented := runCmd(t, "-workers", "4", "serialized",
		"-metrics", "-trace", tracePath)

	if instrumented != plain {
		t.Fatalf("-metrics/-trace changed stdout:\n--- plain ---\n%s\n--- instrumented ---\n%s", plain, instrumented)
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("trace file not written: %v", err)
	}
	var events []map[string]any
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("trace has no events")
	}
	dump := metrics.String()
	for _, want := range []string{"core.substrate.hit", "core.substrate.miss", "parallel.stream.tasks"} {
		if !strings.Contains(dump, want) {
			t.Errorf("metrics dump missing %q:\n%s", want, dump)
		}
	}
}

// TestGanttKeepsOwnTraceFlag guards the one deliberate exception in the
// shared-flag wiring: gantt's -trace exports the *simulated* iteration's
// timeline and must keep doing so rather than being shadowed by the
// telemetry trace.
func TestGanttKeepsOwnTraceFlag(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "gantt.json")
	runCmd(t, "gantt", "-trace", tracePath)
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("gantt -trace did not write its simulation trace: %v", err)
	}
	var events []map[string]any
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("gantt trace is not valid JSON: %v", err)
	}
	for _, e := range events {
		if name, _ := e["name"].(string); strings.HasPrefix(name, "core.") {
			t.Fatalf("gantt trace contains engine telemetry span %q: the telemetry -trace shadowed gantt's", name)
		}
	}
}
