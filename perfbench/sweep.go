package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"twocs/internal/core"
	"twocs/internal/parallel"
	"twocs/internal/serve"
	"twocs/internal/stream"
	"twocs/internal/telemetry"
)

// sweepScenarios sizes the sweep grid: Table-3 axes x 2000 scenarios is
// 312,000 rows, about half a second to a file on two cores, so a run
// holds several passes and reports their medians.
const sweepScenarios = 2000

// sweepPass is what one pass of the sweep workload measured.
type sweepPass struct {
	file     time.Duration // StreamEvolutionGridCtx into the NDJSON file
	http     time.Duration // POST /v1/sweep until the trailer line
	fileCPU  time.Duration // process CPU time over the same spans
	httpCPU  time.Duration
	firstRow time.Duration // POST until the first row arrived
	heapMB   float64       // daemon's live-heap growth over the pass
	fileSum  string        // SHA-256 of the file artifact
	trailer  string        // the file's last line
	httpSame bool          // HTTP body byte-identical to the file
	httpRows int64
	traced   bool
	// Traced passes only.
	sink   *timedSink
	writer *timedWriter
}

// runSweep streams the grid to a file, then has a freshly started
// daemon stream the same spec over /v1/sweep, and checks that the two
// artifacts are byte-identical. Every row is an opmodel memo hit, so
// the time goes to ordered emission, NDJSON encoding, writes and HTTP
// chunking.
func runSweep(ctx context.Context, env *runEnv) (*report, error) {
	rep := newReport()
	g := newGrid(sweepScenarios)
	wantRows := g.rows()
	body, err := json.Marshal(serve.SweepRequest{GridSpec: serve.GridSpec{
		Hs: core.Table3Hs(), SLs: core.Table3SLs(), TPs: core.Table3TPs(), FlopVsBW: g.ratios,
	}})
	if err != nil {
		return nil, err
	}
	path := filepath.Join(env.outDir, fmt.Sprintf("sweep-%d.ndjson", os.Getpid()))
	defer os.Remove(path)

	setup, err := measureSetup(ctx, env, rep)
	if err != nil {
		return nil, err
	}
	memo := memoCounters{}
	var passes []sweepPass
	var lastAn *core.Analyzer
	rtBefore := readRuntime()
	end := env.deadline()
	for i := 0; len(passes) < 3 || time.Now().Before(end); i++ {
		// A traced run alternates untraced and traced passes, so the
		// overhead of tracing is measured inside one process.
		traced := env.trace && i%2 == 1
		p, an, err := sweepOnce(ctx, env, g, body, path, int64(i+1), traced, memo)
		if err != nil {
			return nil, err
		}
		lastAn = an
		passes = append(passes, p)
		checkSweepPass(rep, i, p, passes[0], wantRows)
	}
	checkGolden(rep, "sweep_sha256", passes[0].fileSum)
	rep.info["sha256"] = passes[0].fileSum
	rep.info["rows_per_pass"] = wantRows
	rep.info["passes"] = len(passes)

	var fileRate, httpRate, httpCPUMS, passRate, heaps, httpExtra []float64
	var fileWallMS, httpWallMS, plainCPU, tracedCPU []float64
	for _, p := range passes {
		cpu := (p.fileCPU + p.httpCPU).Seconds()
		if p.traced {
			tracedCPU = append(tracedCPU, cpu)
			continue
		}
		plainCPU = append(plainCPU, cpu)
		httpExtra = append(httpExtra, float64(p.http-p.file)/float64(wantRows))
		fileRate = append(fileRate, float64(wantRows)/p.fileCPU.Seconds())
		httpRate = append(httpRate, float64(wantRows)/p.httpCPU.Seconds())
		httpCPUMS = append(httpCPUMS, ms(p.httpCPU))
		passRate = append(passRate, 1/cpu)
		heaps = append(heaps, p.heapMB)
		fileWallMS = append(fileWallMS, ms(p.file))
		httpWallMS = append(httpWallMS, ms(p.http))
	}
	aud, err := runAudit(lastAn)
	if err != nil {
		return nil, err
	}
	rep.info["file_wall_ms"] = fileWallMS
	rep.info["http_wall_ms"] = httpWallMS
	rep.info["http_cpu_ms"] = httpCPUMS
	rep.e2e["setup_s"] = setup
	rep.e2e["rows_per_s"] = median(fileRate)
	rep.e2e["http_rows_per_s"] = median(httpRate)
	rep.e2e["latency_p50_ms"] = median(httpCPUMS)
	rep.e2e["iters_per_s"] = median(passRate)
	rep.e2e["proj_err_pct"] = aud.errPct
	rep.e2e["heap_growth_mb"] = median(heaps)
	rep.layer["latency_p99_ms"] = quantile(httpCPUMS, 0.99)
	if env.trace {
		addRuntimeDeltas(rep.layer, rtBefore, int64(len(passes))*2*wantRows)
		// HTTP's extra time per row over the file path, and the file
		// path's own time per row, from the untraced passes, where
		// neither path carries wrappers.
		rep.layer["serve.http_ns_per_row"] = median(httpExtra)
		rep.layer["ladder.e2e_ns_per_row"] = median(fileWallMS) * 1e6 / float64(wantRows)
		if err := sweepLayers(ctx, rep, g, lastAn, passes, memo); err != nil {
			return nil, err
		}
		rep.layer["telemetry.overhead_pct"] = 100 * (median(tracedCPU)/median(plainCPU) - 1)
	}
	return rep, nil
}

// checkSweepPass checks one pass's two artifacts: each ends in a
// complete trailer for every row, the HTTP body is byte-identical to
// the file, and both are identical to the first pass's. A pass whose
// artifacts are wrong counts as failed twice, once per path.
func checkSweepPass(rep *report, i int, p, first sweepPass, wantRows int64) {
	rep.attempted += 2
	complete := p.trailer == fmt.Sprintf(`{"trailer":true,"rows":%d,"total":%d,"complete":true}`, wantRows, wantRows)
	same := p.httpSame && p.httpRows == wantRows+1
	rep.check(complete, "pass %d: trailer %s, want a complete trailer for %d rows", i, p.trailer, wantRows)
	rep.check(p.httpSame, "pass %d: the HTTP body differs from the file artifact", i)
	rep.check(p.httpRows == wantRows+1, "pass %d: HTTP body has %d lines, want %d rows and a trailer", i, p.httpRows, wantRows)
	rep.check(p.fileSum == first.fileSum, "pass %d: artifact sha256 %s differs from pass 0's %s", i, p.fileSum, first.fileSum)
	if !complete || !same {
		rep.failed += 2
	}
}

// sweepOnce runs one pass: calibrate an analyzer, stream the grid into
// the file, start a daemon over the analyzer with a fresh collector,
// stream the same spec over HTTP, measure the live heap the daemon
// holds, and stop it.
func sweepOnce(ctx context.Context, env *runEnv, g gridSpec, body []byte, path string, trace int64, traced bool, memo memoCounters) (sweepPass, *core.Analyzer, error) {
	p := sweepPass{traced: traced}
	var tr *tracer
	if traced {
		tr = env.tr
	}
	passStart := time.Now()
	passID := tr.id()
	heap0 := liveHeap()

	an, err := newAnalyzer()
	if err != nil {
		return p, nil, err
	}

	f, err := os.Create(path)
	if err != nil {
		return p, nil, err
	}
	var sink stream.Sink
	var fileCol *telemetry.Collector
	if traced {
		// The traced pass turns the repo's collector on for the file
		// path too, so its memo counters are visible.
		fileCol = telemetry.NewCollector()
		telemetry.Enable(fileCol)
		p.writer = &timedWriter{w: f}
		p.sink = &timedSink{inner: stream.NewNDJSON(p.writer)}
		sink = p.sink
	} else {
		sink = stream.NewNDJSON(f)
	}
	c1 := cpuTime()
	t1 := time.Now()
	streamErr := g.stream(ctx, an, sink)
	p.file = time.Since(t1)
	p.fileCPU = cpuTime() - c1
	telemetry.Enable(nil)
	closeErr := f.Close()
	if err := errors.Join(streamErr, closeErr); err != nil {
		return p, nil, fmt.Errorf("file stream: %w", err)
	}
	if traced {
		memo.add(fileCol)
		coreID := tr.span(passID, trace, "core.StreamEvolutionGridCtx", t1, p.file)
		sinkID := p.sink.recordUnder(tr, coreID, trace, "stream.NDJSON.Emit+Close", t1)
		tr.record(tr.id(), sinkID, trace, "io.Writer.Write", t1, p.writer.dur, p.writer.calls)
	}
	if p.fileSum, p.trailer, err = fileDigest(path); err != nil {
		return p, nil, err
	}

	d, err := startDaemon(ctx, an, daemonConfig(env.workload), tr)
	if err != nil {
		return p, nil, err
	}
	c2 := cpuTime()
	httpErr := postSweep(ctx, d, body, path, &p, tr, passID, trace)
	p.httpCPU = cpuTime() - c2
	p.heapMB = heapGrowthMB(heap0)
	if traced {
		memo.add(d.col)
	}
	if err := errors.Join(httpErr, d.stop(ctx)); err != nil {
		return p, nil, err
	}
	tr.record(passID, 0, trace, "sweep.pass", passStart, time.Since(passStart), 1)
	return p, an, nil
}

// postSweep POSTs the spec to /v1/sweep and reads the streamed body,
// comparing it byte for byte with the file artifact at path and timing
// the first row and the trailer at the client.
func postSweep(ctx context.Context, d *daemon, body []byte, path string, p *sweepPass, tr *tracer, parent, trace int64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.url+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if tr != nil {
		req.Header.Set(traceHeader, strconv.FormatInt(trace, 10))
	}
	t0 := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("/v1/sweep answered %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	buf := make([]byte, 64<<10)
	want := make([]byte, len(buf))
	p.httpSame = true
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			chunk := buf[:n]
			if p.httpRows == 0 && bytes.IndexByte(chunk, '\n') >= 0 {
				p.firstRow = time.Since(t0)
			}
			p.httpRows += int64(bytes.Count(chunk, []byte{'\n'}))
			if p.httpSame {
				_, ferr := io.ReadFull(f, want[:n])
				p.httpSame = ferr == nil && bytes.Equal(chunk, want[:n])
			}
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
	}
	p.http = time.Since(t0)
	if n, _ := f.Read(want[:1]); n > 0 {
		p.httpSame = false // the file is longer than the body
	}
	tr.record(tr.id(), parent, trace, "client.POST /v1/sweep", t0, p.http, 1)
	return nil
}

// fileDigest returns the SHA-256 of the artifact and its last line.
func fileDigest(path string) (string, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", "", err
	}
	defer f.Close()
	h := sha256.New()
	var end tail
	if _, err := io.Copy(io.MultiWriter(h, &end), f); err != nil {
		return "", "", err
	}
	return hex.EncodeToString(h.Sum(nil)), end.lastLine(), nil
}

// tail keeps the last bytes written to it, enough to hold the trailer.
type tail struct{ b []byte }

func (t *tail) Write(p []byte) (int, error) {
	const keep = 1024
	t.b = append(t.b, p...)
	if len(t.b) > 2*keep {
		t.b = append(t.b[:0], t.b[len(t.b)-keep:]...)
	}
	return len(p), nil
}

// lastLine returns the final newline-terminated line, without the
// newline.
func (t *tail) lastLine() string {
	b := bytes.TrimSuffix(t.b, []byte{'\n'})
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		b = b[i+1:]
	}
	return string(b)
}

// sweepLayers derives the per-layer metrics and the per-row cost ladder
// from the traced passes, plus two probes on the same inputs: the
// parallel engine with a precomputed row, and warm ProjectIteration
// calls on the grid's shapes.
func sweepLayers(ctx context.Context, rep *report, g gridSpec, an *core.Analyzer, passes []sweepPass, memo memoCounters) error {
	var coreSelf, ndjson, ioNS, bytesRow, calls, firstRow []float64
	for _, p := range passes {
		if !p.traced {
			continue
		}
		rows := float64(p.sink.rows)
		coreSelf = append(coreSelf, float64(p.file-p.sink.total())/rows)
		ndjson = append(ndjson, float64(p.sink.total()-p.writer.dur)/rows)
		ioNS = append(ioNS, float64(p.writer.dur)/rows)
		bytesRow = append(bytesRow, float64(p.writer.bytes)/rows)
		calls = append(calls, float64(p.writer.calls))
		firstRow = append(firstRow, ms(p.firstRow))
	}
	engine, err := probeEngine(ctx, g.rows())
	if err != nil {
		return err
	}
	hit, err := probeProjection(an, g)
	if err != nil {
		return err
	}
	l := rep.layer
	l["parallel.ns_per_row"] = engine
	l["opmodel.hit_ns"] = hit
	l["core.self_ns_per_row"] = median(coreSelf)
	l["stream.ndjson_ns_per_row"] = median(ndjson)
	l["io.write_ns_per_row"] = median(ioNS)
	l["stream.bytes_per_row"] = median(bytesRow)
	l["io.write_calls"] = median(calls)
	l["serve.sweep_first_row_ms"] = median(firstRow)
	memo.report(l)

	// The ladder: independently measured rungs of one file-path row,
	// against the untraced file path's wall time per row. Projection
	// runs on every worker at once, so its wall share is the per-call
	// cost over the worker count; emission is serial. Core self time
	// (measured with the collector on, so it includes the per-task
	// spans) and HTTP's extra time are printed beside the sum.
	workers := float64(parallel.Workers(an.Workers))
	rungs := map[string]float64{
		"parallel":  engine,
		"opmodel":   hit / workers,
		"ndjson":    median(ndjson),
		"io":        median(ioNS),
		"core_self": median(coreSelf),
		"http":      l["serve.http_ns_per_row"],
	}
	sum := rungs["parallel"] + rungs["opmodel"] + rungs["ndjson"] + rungs["io"]
	end := l["ladder.e2e_ns_per_row"]
	l["ladder.gap_pct"] = 100 * (end - sum) / end
	ladder := map[string]string{}
	for _, k := range sortedKeys(rungs) {
		ladder[k] = strconv.FormatFloat(rungs[k], 'f', 1, 64)
	}
	ladder["sum(parallel+opmodel+ndjson+io)"] = strconv.FormatFloat(sum, 'f', 1, 64)
	ladder["e2e_file"] = strconv.FormatFloat(end, 'f', 1, 64)
	ladder["gap_pct"] = strconv.FormatFloat(l["ladder.gap_pct"], 'f', 1, 64)
	rep.info["ladder_ns_per_row"] = ladder
	fmt.Fprintf(os.Stderr, "perfbench: sweep ladder ns/row: parallel %.0f + opmodel %.0f/%g + ndjson %.0f + io %.0f = %.0f vs e2e %.0f (gap %.1f%%); core self %.0f, http extra %.0f\n",
		engine, hit, workers, rungs["ndjson"], rungs["io"], sum, end, l["ladder.gap_pct"], rungs["core_self"], rungs["http"])
	return nil
}

// probeEngine times parallel.StreamCtx over n indices with the default
// worker count, a producer that returns a precomputed row and a no-op
// emit: the engine's own cost per row.
func probeEngine(ctx context.Context, n int64) (float64, error) {
	row := stream.Row{Evo: "1x", FlopVsBW: 1, H: 1024, SL: 1024, B: 1, TP: 4}
	t0 := time.Now()
	err := parallel.StreamCtx(ctx, 0, int(n), 0,
		func(context.Context, int) (stream.Row, error) { return row, nil },
		func(int, []stream.Row) error { return nil })
	return float64(time.Since(t0)) / float64(n), err
}

// probeProjection times warm ProjectIteration calls over every runnable
// Table-3 shape at up to 64 of the grid's scenarios, single-threaded.
func probeProjection(an *core.Analyzer, g gridSpec) (float64, error) {
	evos := g.evos
	if len(evos) > 64 {
		evos = evos[:64]
	}
	var calls int64
	var dur time.Duration
	for _, h := range core.Table3Hs() {
		for _, sl := range core.Table3SLs() {
			cfg, err := core.FutureConfig(h, sl, 1)
			if err != nil {
				return 0, err
			}
			for _, tp := range core.Table3TPs() {
				if !cfg.TPDivides(tp) {
					continue
				}
				t0 := time.Now()
				for _, evo := range evos {
					if _, err := an.OpModel.ProjectIteration(cfg, tp, evo); err != nil {
						return 0, err
					}
				}
				dur += time.Since(t0)
				calls += int64(len(evos))
			}
		}
	}
	return float64(dur) / float64(calls), nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
