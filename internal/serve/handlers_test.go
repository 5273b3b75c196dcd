package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"twocs/internal/core"
	"twocs/internal/hw"
	"twocs/internal/model"
	"twocs/internal/parallel"
	"twocs/internal/stream"
	"twocs/internal/telemetry"
)

// sharedAnalyzer builds the standard BERT-baseline analyzer once for
// the whole test binary; it is concurrency-safe after construction.
var sharedAnalyzer = sync.OnceValues(func() (*core.Analyzer, error) {
	e, err := model.LookupZoo("BERT")
	if err != nil {
		return nil, err
	}
	return core.NewAnalyzer(hw.MI210Cluster(1, 0), e.Config, 4)
})

func testServer(t *testing.T, cfg Config) (*Server, *telemetry.Collector, *httptest.Server) {
	t.Helper()
	a, err := sharedAnalyzer()
	if err != nil {
		t.Fatal(err)
	}
	col := telemetry.NewCollector()
	s := New(a, cfg, col, nil)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, col, ts
}

const smallStudy = `{"h":[1024],"sl":[1024],"tp":[4,8],"flopbw":[1],"target_fraction":0.5}`

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func counter(t *testing.T, col *telemetry.Collector, name string) int64 {
	t.Helper()
	v, _ := col.Snapshot().Counter(name)
	return v
}

// TestStudyCacheHit: the acceptance criterion — an identical second
// request is served from cache, byte-identical, with the hit counter
// incremented and the verdict in the response header.
func TestStudyCacheHit(t *testing.T) {
	s, col, ts := testServer(t, DefaultConfig())
	r1, b1 := postJSON(t, ts.URL+"/v1/study", smallStudy)
	if r1.StatusCode != 200 {
		t.Fatalf("first study: %d %s", r1.StatusCode, b1)
	}
	if v := r1.Header.Get("X-Twocsd-Cache"); v != "miss" {
		t.Fatalf("first request cache verdict %q", v)
	}
	// Equivalent but permuted/defaulted spec must hit the same entry.
	r2, b2 := postJSON(t, ts.URL+"/v1/study", `{"tp":[8,4,8],"sl":[1024],"h":[1024],"b":1,"flopbw":[1]}`)
	if r2.StatusCode != 200 {
		t.Fatalf("second study: %d %s", r2.StatusCode, b2)
	}
	if v := r2.Header.Get("X-Twocsd-Cache"); v != "hit" {
		t.Fatalf("second request cache verdict %q", v)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("cached body differs from computed body")
	}
	if h := counter(t, col, "serve.cache.hit"); h != 1 {
		t.Fatalf("cache hit counter = %d", h)
	}
	if m := counter(t, col, "serve.cache.miss"); m != 1 {
		t.Fatalf("cache miss counter = %d", m)
	}
	if s.results.Len() != 1 {
		t.Fatalf("cache holds %d entries", s.results.Len())
	}

	var resp StudyResponse
	if err := json.Unmarshal(b1, &resp); err != nil {
		t.Fatalf("study body is not JSON: %v", err)
	}
	if len(resp.Scenarios) != 1 || resp.Points != 2 {
		t.Fatalf("unexpected study shape: %d scenarios, %d points", len(resp.Scenarios), resp.Points)
	}
	sc := resp.Scenarios[0]
	if len(sc.Points) != 2 || len(sc.Crossover) != 1 {
		t.Fatalf("scenario shape: %d points, %d crossover rows", len(sc.Points), len(sc.Crossover))
	}
	if resp.Spec.TargetFraction < 0.49 || resp.Spec.TargetFraction > 0.51 {
		t.Fatalf("normalized spec not echoed: %+v", resp.Spec)
	}
}

// TestStudyConcurrentIdentical: two identical requests in flight
// together produce one computation (singleflight), byte-identical
// bodies, and a hit+miss counter pair.
func TestStudyConcurrentIdentical(t *testing.T) {
	_, col, ts := testServer(t, DefaultConfig())
	spec := `{"h":[2048],"sl":[1024],"tp":[4,8,16],"flopbw":[1,2]}`
	var wg sync.WaitGroup
	bodies := make([][]byte, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, b := postJSON(t, ts.URL+"/v1/study", spec)
			if resp.StatusCode != 200 {
				t.Errorf("request %d: %d %s", i, resp.StatusCode, b)
			}
			bodies[i] = b
		}(i)
	}
	wg.Wait()
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatal("concurrent identical requests returned different bytes")
	}
	if m := counter(t, col, "serve.cache.miss"); m != 1 {
		t.Fatalf("miss counter = %d, want 1 (one computation)", m)
	}
	if h := counter(t, col, "serve.cache.hit"); h != 1 {
		t.Fatalf("hit counter = %d, want 1 (follower or cached)", h)
	}
}

// waitCounter polls until the named counter reaches n.
func waitCounter(t *testing.T, col *telemetry.Collector, name string, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for counter(t, col, name) < n {
		if time.Now().After(deadline) {
			t.Fatalf("%s stuck at %d, want %d", name, counter(t, col, name), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestStudySurvivesLeaderCancel: when the request that started a shared
// study goes away, an identical request waiting on it still gets 200
// with the bytes of a clean build, not the leader's 503. The gate is a
// pending build of the study's model analyzer, which holds the leader's
// study until the follower waits on it.
func TestStudySurvivesLeaderCancel(t *testing.T) {
	const spec = `{"h":[1024],"sl":[1024],"tp":[4,8],"flopbw":[1],"model":"GPT-2"}`
	s, col, _ := testServer(t, DefaultConfig())
	gate := make(chan struct{})
	gated := make(chan error, 1)
	go func() {
		_, _, err := s.analyzers.Get(context.Background(), "GPT-2", func() (*core.Analyzer, error) {
			<-gate
			e, err := model.LookupZoo("GPT-2")
			if err != nil {
				return nil, err
			}
			a, err := core.NewAnalyzer(s.an.Cluster, e.Config, model.CalibrationTP(e.Config))
			if err != nil {
				return nil, err
			}
			a.Workers = s.an.Workers
			return a, nil
		})
		gated <- err
	}()
	waitCounter(t, col, "serve.analyzer.miss", 1)

	study := func(ctx context.Context, h http.Handler) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/study", strings.NewReader(spec)).WithContext(ctx)
		h.ServeHTTP(rec, req)
		return rec
	}
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	leader := make(chan *httptest.ResponseRecorder, 1)
	go func() { leader <- study(leaderCtx, s.Handler()) }()
	waitCounter(t, col, "serve.analyzer.hit", 1)
	follower := make(chan *httptest.ResponseRecorder, 1)
	go func() { follower <- study(context.Background(), s.Handler()) }()
	waitCounter(t, col, "serve.cache.hit", 1)

	cancelLeader()
	if rec := <-leader; rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("canceled leader: %d %s", rec.Code, rec.Body)
	}
	close(gate)
	if err := <-gated; err != nil {
		t.Fatal(err)
	}
	got := <-follower
	if got.Code != http.StatusOK {
		t.Fatalf("follower of a canceled leader: %d %s", got.Code, got.Body)
	}
	clean, _, _ := testServer(t, DefaultConfig())
	if want := study(context.Background(), clean.Handler()); want.Code != http.StatusOK || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("follower body differs from a clean build (%d):\n%s\nwant:\n%s", want.Code, got.Body, want.Body)
	}
}

func TestStudyRejections(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxStudyPoints = 4
	_, col, ts := testServer(t, cfg)

	get, err := http.Get(ts.URL + "/v1/study")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET study: %d", get.StatusCode)
	}

	cases := []struct {
		body string
		want int
	}{
		{`not json`, 400},
		{`{"hss":[1024]}`, 400},                // unknown field
		{`{"h":[0]}`, 400},                     // invalid axis value
		{`{"target_fraction":1.5}`, 400},       // target out of range
		{`{"h":[1024],"sl":[1024]} junk`, 400}, // trailing garbage
		{`{}`, 413},                            // full default grid > MaxStudyPoints
	}
	for _, c := range cases {
		resp, b := postJSON(t, ts.URL+"/v1/study", c.body)
		if resp.StatusCode != c.want {
			t.Errorf("body %q: status %d (%s), want %d", c.body, resp.StatusCode, b, c.want)
		}
	}
	if rej := counter(t, col, "serve.requests.rejected"); rej != int64(len(cases)) {
		t.Fatalf("rejected counter = %d, want %d", rej, len(cases))
	}
}

// TestSweepRejectsShardFields: sweeps are whole grids. A body carrying
// "lo"/"hi" is a 400 naming the field (strict decoding), and there is
// no /v1/plan route.
func TestSweepRejectsShardFields(t *testing.T) {
	_, _, ts := testServer(t, DefaultConfig())
	const spec = `{"h":[1024],"sl":[1024],"tp":[4,8],"flopbw":[1],"lo":0,"hi":1}`
	for _, path := range []string{"/v1/sweep", "/v1/study"} {
		resp, body := postJSON(t, ts.URL+path, spec)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), `"lo"`) {
			t.Fatalf("%s with lo/hi: %d %s, want 400 naming the field", path, resp.StatusCode, body)
		}
	}
	resp, body := postJSON(t, ts.URL+"/v1/plan", `{"h":[1024]}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /v1/plan: %d %s, want 404", resp.StatusCode, body)
	}
}

// TestModelSelection: an unknown model is a 400 naming the valid zoo;
// a valid non-default model computes against its own calibrated
// analyzer and yields a different study than the BERT default.
func TestModelSelection(t *testing.T) {
	_, col, ts := testServer(t, DefaultConfig())

	resp, body := postJSON(t, ts.URL+"/v1/study", `{"h":[1024],"sl":[1024],"tp":[4],"flopbw":[1],"model":"BERT-XXL"}`)
	if resp.StatusCode != 400 {
		t.Fatalf("unknown model: %d %s", resp.StatusCode, body)
	}
	for _, name := range []string{"BERT", "GPT-2", "PaLM"} {
		if !strings.Contains(string(body), name) {
			t.Fatalf("unknown-model 400 does not list %q: %s", name, body)
		}
	}

	spec := `{"h":[1024],"sl":[1024],"tp":[4,8],"flopbw":[1]`
	_, bertBody := postJSON(t, ts.URL+"/v1/study", spec+`}`)
	respGPT, gptBody := postJSON(t, ts.URL+"/v1/study", spec+`,"model":"GPT-2"}`)
	if respGPT.StatusCode != 200 {
		t.Fatalf("GPT-2 study: %d %s", respGPT.StatusCode, gptBody)
	}
	if bytes.Equal(bertBody, gptBody) {
		t.Fatal("GPT-2 study is byte-identical to BERT's — model selection had no effect")
	}
	if n := counter(t, col, "serve.analyzer.models"); n != 1 {
		t.Fatalf("analyzer.models counter = %d, want 1 (GPT-2 built lazily)", n)
	}
	// Same model again: memoized, no second build.
	postJSON(t, ts.URL+"/v1/study", spec+`,"model":"GPT-2","target_fraction":0.4}`)
	if n := counter(t, col, "serve.analyzer.models"); n != 1 {
		t.Fatalf("analyzer.models counter = %d after reuse, want 1", n)
	}

	// The explicit default model shares the cache entry with the implicit
	// one: normalization fills the default before hashing.
	r1, _ := postJSON(t, ts.URL+"/v1/study", spec+`}`)
	r2, _ := postJSON(t, ts.URL+"/v1/study", spec+`,"model":"BERT"}`)
	if r1.Header.Get("X-Twocsd-Request") != r2.Header.Get("X-Twocsd-Request") {
		t.Fatal("implicit and explicit default model hash differently")
	}
}

// TestNoRunnablePointIs422: a spec whose H no Table-3 TP divides (1088
// has 17 heads) has nothing to compute. Study and sweep both refuse it
// as a client error before any response byte goes out — no 500, and no
// 200 with an empty stream.
func TestNoRunnablePointIs422(t *testing.T) {
	_, col, ts := testServer(t, DefaultConfig())
	const spec = `{"h":[1088],"sl":[1024],"flopbw":[1]}`
	for _, path := range []string{"/v1/study", "/v1/sweep"} {
		resp, b := postJSON(t, ts.URL+path, spec)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status %d (%s), want 422", path, resp.StatusCode, b)
		}
		if !strings.Contains(string(b), core.ErrNoRunnablePoints.Error()) {
			t.Fatalf("%s: body %q does not name the cause", path, b)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("%s: Content-Type %q, want the plain-text error", path, ct)
		}
	}
	if e := counter(t, col, "serve.errors"); e != 0 {
		t.Fatalf("serve.errors = %d, want 0", e)
	}
	if rej := counter(t, col, "serve.requests.rejected"); rej != 2 {
		t.Fatalf("rejected counter = %d, want 2", rej)
	}
}

func TestAdmissionRateLimit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rate = 1e-9 // effectively never refills
	cfg.Burst = 1
	_, col, ts := testServer(t, cfg)
	r1, _ := postJSON(t, ts.URL+"/v1/study", smallStudy)
	if r1.StatusCode != 200 {
		t.Fatalf("first request: %d", r1.StatusCode)
	}
	r2, _ := postJSON(t, ts.URL+"/v1/study", smallStudy)
	if r2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request: %d, want 429", r2.StatusCode)
	}
	if r2.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if rej := counter(t, col, "serve.admission.rejected"); rej != 1 {
		t.Fatalf("admission.rejected = %d", rej)
	}
}

// sweepTrailer is the NDJSON trailer line's schema.
type sweepTrailer struct {
	Trailer  bool   `json:"trailer"`
	Rows     int64  `json:"rows"`
	Total    int64  `json:"total"`
	Canceled int64  `json:"canceled"`
	Complete bool   `json:"complete"`
	Reason   string `json:"reason"`
}

// scanSweep validates every line and returns (data lines, canceled
// lines, trailer).
func scanSweep(t *testing.T, body io.Reader) (int64, int64, sweepTrailer) {
	t.Helper()
	var lines, canceled int64
	var tr sweepTrailer
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if !json.Valid(line) {
			t.Fatalf("invalid JSON line: %s", line)
		}
		if strings.Contains(string(line), `"trailer":true`) {
			if err := json.Unmarshal(line, &tr); err != nil {
				t.Fatal(err)
			}
			continue
		}
		lines++
		if strings.Contains(string(line), `"canceled":true`) {
			canceled++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !tr.Trailer {
		t.Fatal("stream ended without a trailer")
	}
	return lines, canceled, tr
}

func TestSweepStreams(t *testing.T) {
	_, _, ts := testServer(t, DefaultConfig())
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json",
		strings.NewReader(`{"h":[1024,2048],"sl":[1024],"tp":[4,8],"flopbw":[1,4]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("sweep: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	lines, canceled, tr := scanSweep(t, resp.Body)
	if !tr.Complete || tr.Reason != "" {
		t.Fatalf("complete sweep has trailer %+v", tr)
	}
	if lines != 8 || tr.Rows != 8 || tr.Total != 8 {
		t.Fatalf("rows: lines=%d trailer=%+v, want 8", lines, tr)
	}
	if canceled != 0 || tr.Canceled != 0 {
		t.Fatalf("complete sweep reports canceled rows: %d/%d", canceled, tr.Canceled)
	}
}

// gatedWriter holds a response's second write until gate closes.
type gatedWriter struct {
	http.ResponseWriter
	gate   <-chan struct{}
	writes int
	t      *testing.T
}

func (g *gatedWriter) Write(p []byte) (int, error) {
	if g.writes++; g.writes == 2 {
		select {
		case <-g.gate:
		case <-time.After(10 * time.Second):
			g.t.Error("no row reached the client before the sweep's second write")
		}
	}
	return g.ResponseWriter.Write(p)
}

// TestSweepOverTCPMatchesFile streams a Table-3 sweep larger than the
// sink's 64 KB buffer over a real TCP connection. The body must be
// byte-identical to the NDJSON file the same grid streams to, and its
// first row must reach the client before the handler returns: the sink
// writes each full buffer through, with no flush of its own, so the
// body leaves in more than one write, and the second write waits here
// until the client holds the first row.
func TestSweepOverTCPMatchesFile(t *testing.T) {
	a, err := sharedAnalyzer()
	if err != nil {
		t.Fatal(err)
	}
	h := New(a, DefaultConfig(), telemetry.NewCollector(), nil).Handler()
	firstRow := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gw := &gatedWriter{ResponseWriter: w, gate: firstRow, t: t}
		h.ServeHTTP(gw, r)
		if gw.writes < 2 {
			t.Errorf("the sweep body left the handler in %d write(s), want it streamed", gw.writes)
		}
	}))
	defer ts.Close()

	const body = `{"flopbw":[1,2,4]}`
	var req SweepRequest
	if err := decodeStrict(strings.NewReader(body), &req); err != nil {
		t.Fatal(err)
	}
	if err := req.normalize(DefaultConfig().DefaultModel); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(t.TempDir(), "sweep.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := a.StreamEvolutionGridPartialCtx(context.Background(), req.Hs, req.SLs, req.TPs, req.B, req.Evolutions(), stream.NewNDJSON(f)); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if len(want) <= 64<<10 {
		t.Fatalf("sweep artifact is %d bytes, want more than the 64 KB sink buffer", len(want))
	}

	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rd := bufio.NewReader(resp.Body)
	line, err := rd.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	close(firstRow)
	rest, err := io.ReadAll(rd)
	if err != nil {
		t.Fatal(err)
	}
	if got := append(line, rest...); !bytes.Equal(got, want) {
		t.Fatalf("HTTP body (%d bytes) differs from the file artifact (%d bytes)", len(got), len(want))
	}
}

// TestSweepSpansBounded pins the daemon's span memory: with the
// collector enabled process-wide, as twocsd runs, serving Table-3
// sweeps stores a few spans per 512-row chunk and never more than
// telemetry.MaxSpans, however many rows were served.
func TestSweepSpansBounded(t *testing.T) {
	_, col, ts := testServer(t, DefaultConfig())
	telemetry.Enable(col)
	defer telemetry.Enable(nil)

	ratios := make([]string, 100)
	for i := range ratios {
		ratios[i] = strconv.Itoa(1 + i)
	}
	body := `{"flopbw":[` + strings.Join(ratios, ",") + `]}`
	var rows int64
	for req := 0; req < 2; req++ {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		_, _, tr := scanSweep(t, resp.Body)
		resp.Body.Close()
		if !tr.Complete {
			t.Fatalf("request %d: incomplete sweep %+v", req, tr)
		}
		rows += tr.Rows
	}

	var buf bytes.Buffer
	if err := col.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []struct{ Ph string }
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	spans := 0
	for _, e := range events {
		if e.Ph == "X" {
			spans++
		}
	}
	// One span per chunk plus a handful per request.
	limit := int(rows/parallel.DefaultStreamChunk) + 2*16
	if spans > telemetry.MaxSpans || spans > limit {
		t.Fatalf("%d rows served stored %d spans, want <= %d (and <= MaxSpans %d)",
			rows, spans, limit, telemetry.MaxSpans)
	}
}

// TestSweepDeadlinePartial: a sweep whose deadline fires still returns
// a well-formed artifact — full grid shape, every line valid JSON,
// canceled rows marked and counted, trailer naming the deadline.
func TestSweepDeadlinePartial(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SweepTimeout = time.Nanosecond
	_, col, ts := testServer(t, cfg)
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json",
		strings.NewReader(`{"h":[1024,2048],"sl":[1024],"tp":[4,8],"flopbw":[1,4]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("sweep: %d", resp.StatusCode)
	}
	lines, canceled, tr := scanSweep(t, resp.Body)
	if tr.Complete {
		t.Fatalf("deadline sweep claims completeness: %+v", tr)
	}
	if tr.Reason != "deadline exceeded" && tr.Reason != "canceled" {
		t.Fatalf("trailer reason %q", tr.Reason)
	}
	if lines != tr.Total || tr.Rows != tr.Total {
		t.Fatalf("partial sweep lost grid shape: lines=%d trailer=%+v", lines, tr)
	}
	if canceled != tr.Canceled || canceled == 0 {
		t.Fatalf("canceled lines=%d, trailer=%d", canceled, tr.Canceled)
	}
	if p := counter(t, col, "serve.sweep.partial"); p != 1 {
		t.Fatalf("sweep.partial counter = %d", p)
	}
}

func TestSweepBusy(t *testing.T) {
	s, col, ts := testServer(t, DefaultConfig())
	s.sweepMu.Lock()
	defer s.sweepMu.Unlock()
	resp, _ := postJSON(t, ts.URL+"/v1/sweep", `{"h":[1024],"sl":[1024],"tp":[4]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("busy sweep: %d, want 503", resp.StatusCode)
	}
	if b := counter(t, col, "serve.sweep.busy"); b != 1 {
		t.Fatalf("sweep.busy counter = %d", b)
	}
}

func TestIndexAndDebugPlane(t *testing.T) {
	_, _, ts := testServer(t, DefaultConfig())
	for path, want := range map[string]string{
		"/":        "/v1/study",
		"/healthz": "ok",
		"/metrics": "twocs_",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || !strings.Contains(string(b), want) {
			t.Errorf("%s: status %d, body lacks %q", path, resp.StatusCode, want)
		}
	}
	resp, err := http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("unknown path: %d, want 404", resp.StatusCode)
	}
}
