package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is a goroutine-safe bytes.Buffer for the heartbeat sink:
// the heartbeat goroutine writes while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestObservabilityShutdownHygiene is the shutdown satellite: a run
// with the full observability plane armed (-http, -sample, -progress)
// that dies on -timeout must still exit with the partial-results code,
// flush its -trace artifact, stop the debug server (address cleared,
// scrape refused), and leave no sampler/server/heartbeat goroutines.
// The run writes its artifact into a pipe the test drains only after
// the timeout has fired, so it cannot finish first however fast the
// sweep streams.
func TestObservabilityShutdownHygiene(t *testing.T) {
	hb := &syncBuffer{}
	oldHB := heartbeatSink
	heartbeatSink = hb
	defer func() { heartbeatSink = oldHB }()

	before := runtime.NumGoroutine()
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	// As in TestDebugServerServesLiveRun, only a drain releases the
	// run; the drain ends when the run closes its file.
	var once sync.Once
	drained := make(chan struct{})
	release := func() {
		once.Do(func() {
			go func() {
				io.Copy(io.Discard, pr)
				pr.Close()
				close(drained)
			}()
			pw.Close()
		})
	}
	defer release()
	const timeout = 300 * time.Millisecond
	trace := filepath.Join(t.TempDir(), "trace.json")
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		var out strings.Builder
		done <- run([]string{
			"-timeout", timeout.String(),
			"-http", "127.0.0.1:0",
			"-sample", "20ms",
			"-progress", "20ms",
			"-trace", trace,
			// 312k rows: far more than the pipe holds.
			"sweep-stream", "-scenarios", "2000", "-out", fmt.Sprintf("/dev/fd/%d", pw.Fd()),
		}, &out)
	}()
	// The run's timeout starts inside run, just after start: twice the
	// timeout leaves it ample time to fire before the drain.
	select {
	case err := <-done:
		t.Fatalf("run ended before its timeout, held on a full pipe: %v", err)
	case <-time.After(time.Until(start.Add(2 * timeout))):
	}
	release()
	err = <-done
	<-drained
	if exitCode(err) != 3 {
		t.Fatalf("want partial-results exit 3, got %v", err)
	}

	// The PR 4 deferred flush still ran: the trace is valid JSON.
	data, readErr := os.ReadFile(trace)
	if readErr != nil {
		t.Fatalf("trace not flushed: %v", readErr)
	}
	var events []map[string]any
	if jsonErr := json.Unmarshal(data, &events); jsonErr != nil {
		t.Fatalf("flushed trace is not valid JSON: %v", jsonErr)
	}

	// The server is down: its published address is cleared.
	if addr := debugServerAddr(); addr != "" {
		t.Errorf("debug server address still published after run: %q", addr)
	}

	// The final heartbeat reports the canceled stream.
	lines := strings.Split(strings.TrimSpace(hb.String()), "\n")
	var last map[string]any
	if jsonErr := json.Unmarshal([]byte(lines[len(lines)-1]), &last); jsonErr != nil {
		t.Fatalf("final heartbeat invalid: %v\n%s", jsonErr, lines[len(lines)-1])
	}
	if last["event"] != "progress" || last["done"] != true || last["complete"] != false {
		t.Errorf("final heartbeat = %v, want a done, incomplete progress event", last)
	}

	// No goroutine leak: sampler, server and heartbeat loops all exited.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("goroutines grew from %d to %d after the run", before, now)
	}
}

// TestDebugServerServesLiveRun scrapes a run mid-flight: a
// sweep-stream runs in a goroutine, writing its artifact into a pipe
// the test drains only after its scrapes, so the run stalls a few
// hundred rows in however fast it streams. The test polls
// debugServerAddr, then asserts /healthz, /metrics (well-formed
// Prometheus text with a nonzero rows counter), /progress (not yet
// done) and /metrics.json all answer live.
func TestDebugServerServesLiveRun(t *testing.T) {
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	// The run stalls once the pipe fills, and it opened the pipe
	// read-write itself, so only a drain releases it: release drains
	// the pipe and closes the test's write end, so the drain ends when
	// the run closes its file. A test that stops early still releases
	// the run on its way out.
	var once sync.Once
	drained := make(chan struct{})
	release := func() {
		once.Do(func() {
			go func() {
				io.Copy(io.Discard, pr)
				pr.Close()
				close(drained)
			}()
			pw.Close()
		})
	}
	defer release()
	done := make(chan error, 1)
	go func() {
		var out strings.Builder
		done <- run([]string{
			"-timeout", "10s",
			"-http", "127.0.0.1:0",
			"-sample", "10ms",
			"sweep-stream", "-scenarios", "2000", "-out", fmt.Sprintf("/dev/fd/%d", pw.Fd()),
		}, &out)
	}()

	// Wait for the server to come up and the stream to make progress.
	var addr string
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if addr = debugServerAddr(); addr != "" {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if addr == "" {
		t.Fatal("debug server never published an address")
	}
	base := "http://" + addr

	httpGet := func(path string) string {
		t.Helper()
		var lastErr error
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
			resp, err := http.Get(base + path)
			if err != nil {
				lastErr = err
				time.Sleep(5 * time.Millisecond)
				continue
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s: status %d, err %v", path, resp.StatusCode, err)
			}
			return string(body)
		}
		t.Fatalf("GET %s never answered: %v", path, lastErr)
		return ""
	}

	if body := httpGet("/healthz"); strings.TrimSpace(body) != "ok" {
		t.Errorf("/healthz = %q", body)
	}

	// Poll /metrics until the stream has emitted rows, then check shape.
	var metrics string
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		metrics = httpGet("/metrics")
		if strings.Contains(metrics, "twocs_core_stream_rows") &&
			!strings.Contains(metrics, "twocs_core_stream_rows 0\n") {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, want := range []string{
		"# TYPE twocs_core_stream_rows counter",
		"# TYPE twocs_runtime_goroutines gauge",
		"twocs_progress_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q\n%s", want, metrics)
		}
	}

	var prog struct {
		Label string `json:"label"`
		Total int64  `json:"total"`
		Rows  int64  `json:"rows"`
		Done  bool   `json:"done"`
	}
	if err := json.Unmarshal([]byte(httpGet("/progress")), &prog); err != nil {
		t.Fatalf("/progress invalid JSON: %v", err)
	}
	if prog.Label != "sweep-stream" || prog.Total == 0 {
		t.Errorf("/progress = %+v", prog)
	}
	if prog.Done || prog.Rows == 0 || prog.Rows >= prog.Total {
		t.Errorf("/progress = %+v, want a stream caught mid-run", prog)
	}

	var mj struct {
		Series []struct {
			ElapsedS float64 `json:"elapsed_s"`
		} `json:"series"`
	}
	if err := json.Unmarshal([]byte(httpGet("/metrics.json")), &mj); err != nil {
		t.Fatalf("/metrics.json invalid JSON: %v", err)
	}
	if len(mj.Series) == 0 {
		t.Error("/metrics.json has no sampler series")
	}

	// Release the run and let it finish (or time out); either exit is
	// fine here — the shutdown test owns the exit-code contract.
	release()
	if err := <-done; err != nil && exitCode(err) != 3 {
		t.Fatalf("run failed: %v", err)
	}
	<-drained
	if addr := debugServerAddr(); addr != "" {
		t.Errorf("address still published after run: %q", addr)
	}
}

// TestObservabilityFlagsRejectBadAddr: a bad -http address fails the
// run up front instead of silently running without a server.
func TestObservabilityFlagsRejectBadAddr(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-http", "256.256.256.256:0", "zoo"}, &out)
	if err == nil {
		t.Fatal("bogus -http address accepted")
	}
	if !strings.Contains(err.Error(), "listen") {
		t.Errorf("error does not name the listen failure: %v", err)
	}
}
