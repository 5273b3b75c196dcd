package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"twocs/internal/core"
	"twocs/internal/hw"
	"twocs/internal/model"
	"twocs/internal/serve"
)

// studyResult is one request as the load generator saw it.
type studyResult struct {
	status  int
	cache   string
	late    time.Duration // send time minus due time
	latency time.Duration // due time until the body was read
	sum     [32]byte
	err     error
	traced  bool
}

// runStudy drives /v1/study on an in-process daemon with an open loop
// at a fixed rate. The daemon is wired as cmd/twocsd wires it, except
// that its admission token bucket is off (Rate <= 0), so the run
// measures serving and not the rate limiter.
func runStudy(ctx context.Context, env *runEnv) (*report, error) {
	rep := newReport()
	setup, err := measureSetup(ctx, env, rep)
	if err != nil {
		return nil, err
	}
	an, err := newAnalyzer()
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(ctx, an, daemonConfig(env.workload), env.tr)
	if err != nil {
		return nil, err
	}

	plan := newLoadPlan(env.seed, int(env.seconds*studyRate))
	rtBefore := readRuntime()
	cpu0 := cpuTime()
	results, first := runLoad(ctx, d, plan, env.tr != nil)
	loadCPU := (cpuTime() - cpu0).Seconds()
	sc := scoreStudy(rep, plan, results, first)
	aud, err := runAudit(d.an)
	if err != nil {
		return nil, err
	}
	rep.info["specs"] = len(plan.specs)
	rep.info["status_4xx"] = sc.c4xx
	rep.info["status_5xx"] = sc.c5xx

	rep.e2e["setup_s"] = setup
	rep.e2e["latency_p50_ms"] = quantile(sc.okLat, 0.5)
	// The daemon's answers are the rows, and they travel over HTTP, so
	// both row rates are the points answered per CPU second the process
	// (daemon and client) spent under the load.
	rep.e2e["rows_per_s"] = sc.points / loadCPU
	rep.e2e["http_rows_per_s"] = sc.points / loadCPU
	rep.e2e["iters_per_s"] = float64(rep.attempted-rep.failed) / loadCPU
	rep.e2e["proj_err_pct"] = aud.errPct
	rep.e2e["heap_growth_mb"] = heapGrowthMB(env.heapStart)
	l := rep.layer
	l["latency_p99_ms"] = quantile(sc.okLat, 0.99)
	if env.trace {
		addRuntimeDeltas(l, rtBefore, int64(len(results)))
		if err := studyLayers(ctx, env, d, plan, results, l); err != nil {
			return nil, err
		}
		l["load.late_p50_ms"] = quantile(sc.late, 0.5)
		l["load.late_p99_ms"] = quantile(sc.late, 0.99)
		l["serve.status_4xx"] = float64(sc.c4xx)
		l["serve.status_5xx"] = float64(sc.c5xx)
		l["serve.refused"] = float64(sc.refused)
	}
	if err := d.stop(ctx); err != nil {
		return nil, err
	}
	return rep, nil
}

// studyScore is what scoreStudy derives from a load's results.
type studyScore struct {
	okLat  []float64 // ms from due time, +Inf for a failure
	late   []float64 // ms
	points float64   // points delivered by 200s
	c4xx   int64
	c5xx   int64
	// refused counts 429 and 503 answers.
	refused int64
}

// scoreStudy checks and scores every request. A spec with a runnable
// point must get a 200 whose body is byte-identical to the first body
// for that spec and holds the expected number of points; any other
// answer is a failed operation and misses every latency limit. A spec
// with no runnable point must be refused as a client error: a 4xx
// scores as success, a 5xx as a failed operation, and a 2xx is a wrong
// answer.
func scoreStudy(rep *report, plan *loadPlan, results []studyResult, first []firstBody) studyScore {
	var sc studyScore
	for i, r := range results {
		spec := plan.specs[plan.requests[i]]
		rep.attempted++
		sc.late = append(sc.late, ms(r.late))
		switch {
		case r.status >= 400 && r.status < 500:
			sc.c4xx++
		case r.status >= 500:
			sc.c5xx++
		}
		if r.status == http.StatusTooManyRequests || r.status == http.StatusServiceUnavailable {
			sc.refused++
		}
		if !spec.expectOK() {
			rep.check(r.status < 200 || r.status >= 300, "request %d: spec %s with no runnable point answered %d", i, spec.body, r.status)
			if r.status < 400 || r.status >= 500 {
				rep.failed++
			}
			continue
		}
		if r.status != http.StatusOK {
			rep.failed++
			sc.okLat = append(sc.okLat, math.Inf(1))
			continue
		}
		sc.okLat = append(sc.okLat, ms(r.latency))
		rep.check(r.cache == "hit" || r.cache == "miss", "request %d: X-Twocsd-Cache %q", i, r.cache)
		rep.check(r.sum == first[plan.requests[i]].sum, "request %d: body differs from the first body for spec %s", i, spec.body)
		sc.points += float64(spec.points)
	}
	for si, f := range first {
		if f.body != nil {
			got := bodyPoints(f.body)
			rep.check(got == plan.specs[si].points, "spec %s: response holds %d points, want %d",
				plan.specs[si].body, got, plan.specs[si].points)
		}
	}
	return sc
}

// firstBody is the first 200 body seen for a spec.
type firstBody struct {
	sum  [32]byte
	body []byte
}

// runLoad sends every request of the plan at its due time from
// studyConns sender goroutines. A request whose senders are all busy
// at its due time waits, and the wait counts in its latency. With
// traced set, every other request carries the trace header.
func runLoad(ctx context.Context, d *daemon, plan *loadPlan, traced bool) ([]studyResult, []firstBody) {
	results := make([]studyResult, len(plan.requests))
	first := make([]firstBody, len(plan.specs))
	var mu sync.Mutex // guards first
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now().Add(10 * time.Millisecond)
	for w := 0; w < studyConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(plan.requests) || ctx.Err() != nil {
					return
				}
				due := start.Add(plan.due(i))
				waitUntil(due)
				r := postStudy(ctx, d, plan.specs[plan.requests[i]].body, traced && i%2 == 1, int64(i+1))
				r.late = r.sent.Sub(due)
				r.latency = time.Since(due)
				if r.status == http.StatusOK {
					mu.Lock()
					if f := &first[plan.requests[i]]; f.body == nil {
						f.sum, f.body = r.sum, r.body
					}
					mu.Unlock()
				}
				results[i] = r.studyResult
			}
		}()
	}
	wg.Wait()
	return results, first
}

// waitUntil returns at due (or at once, when due has passed). It sleeps
// in nanosleep(2) on its own thread rather than in time.Sleep: an idle
// Go process sleeps in the network poller, whose timeout has
// millisecond resolution, so time.Sleep wakes up to a millisecond late,
// as long as a cache hit takes to serve.
func waitUntil(due time.Time) {
	for d := time.Until(due); d > 0; d = time.Until(due) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// studyReply is a studyResult plus the body, kept only until the
// first-body bookkeeping has seen it.
type studyReply struct {
	studyResult
	sent time.Time
	body []byte
}

func postStudy(ctx context.Context, d *daemon, body []byte, traced bool, trace int64) studyReply {
	var r studyReply
	r.traced = traced
	sent := time.Now()
	r.sent = sent
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.url+"/v1/study", bytes.NewReader(body))
	if err != nil {
		r.err = err
		return r
	}
	req.Header.Set("Content-Type", "application/json")
	if traced {
		req.Header.Set(traceHeader, strconv.FormatInt(trace, 10))
	}
	resp, err := d.client.Do(req)
	if err != nil {
		r.err = err
		return r
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		r.err = err
		return r
	}
	r.status = resp.StatusCode
	r.cache = resp.Header.Get("X-Twocsd-Cache")
	r.sum = sha256.Sum256(b)
	r.body = b
	return r
}

// bodyPoints reads the point count a study response reports, or -1
// when the body does not parse.
func bodyPoints(b []byte) int {
	var resp serve.StudyResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		return -1
	}
	n := 0
	for _, sc := range resp.Scenarios {
		n += len(sc.Points)
	}
	if n != resp.Points {
		return -1
	}
	return n
}

// studyLayers derives the study's per-layer metrics: the middleware's
// view of each traced request, the daemon's memo counters, and direct
// calls into the grid and memo layers on the same kind of inputs.
func studyLayers(ctx context.Context, env *runEnv, d *daemon, plan *loadPlan, results []studyResult, l map[string]float64) error {
	var hitUS, missUS []float64
	var studies, hits int
	for _, h := range d.mw.requests() {
		if h.path != "/v1/study" {
			continue
		}
		studies++
		switch h.cache {
		case "hit":
			hits++
			hitUS = append(hitUS, float64(h.dur)/1e3)
		case "miss":
			missUS = append(missUS, float64(h.dur)/1e3)
		}
	}
	l["serve.hit_us_p50"] = quantile(hitUS, 0.5)
	l["serve.miss_us_p50"] = quantile(missUS, 0.5)
	l["serve.miss_us_p99"] = quantile(missUS, 0.99)
	if studies > 0 {
		l["serve.hit_ratio"] = float64(hits) / float64(studies)
	}
	memo := memoCounters{}
	memo.add(d.col)
	memo.report(l)

	// Tracing overhead: traced and untraced requests interleave, so
	// their latencies compare under the same load.
	var plain, traced []float64
	for i, r := range results {
		if r.status != http.StatusOK || !plan.specs[plan.requests[i]].expectOK() {
			continue
		}
		if r.traced {
			traced = append(traced, ms(r.latency))
		} else {
			plain = append(plain, ms(r.latency))
		}
	}
	l["telemetry.overhead_pct"] = 100 * (median(traced)/median(plain) - 1)

	// The materialising grid, called directly on the runnable novel
	// specs, from an analyzer whose projection memo is cold as the
	// daemon's was.
	fresh, err := newAnalyzer()
	if err != nil {
		return err
	}
	var gridUS []float64
	for _, s := range plan.specs {
		if !s.expectOK() {
			continue
		}
		evos := make([]hw.Evolution, len(s.FlopBW))
		for i, r := range s.FlopBW {
			evos[i] = hw.RatioScenario(r)
		}
		t0 := time.Now()
		if _, err := fresh.SerializedEvolutionGridCtx(ctx, s.Hs, s.SLs, core.Table3TPs(), 1, evos); err != nil {
			return err
		}
		gridUS = append(gridUS, float64(time.Since(t0))/1e3)
	}
	l["core.study_grid_us"] = median(gridUS)

	// Memo misses on shapes no request used: the first CachedLayerOps
	// call builds the op graph; the first ProjectIteration on another
	// fresh analyzer then misses only the projection memo.
	probe, err := newAnalyzer()
	if err != nil {
		return err
	}
	used := map[[2]int]bool{}
	for _, s := range append(plan.specs, &studySpec{Hs: core.Table3Hs(), SLs: core.Table3SLs()}) {
		for _, h := range s.Hs {
			for _, sl := range s.SLs {
				used[[2]int{h, sl}] = true // requested, or priced by the audit
			}
		}
	}
	rng := rand.New(rand.NewPCG(env.seed, 0x9e0b))
	var buildUS, missProjUS []float64
	for len(buildUS) < 64 {
		// H a multiple of 256 keeps TP=4 runnable.
		h := (minH/256 + rng.IntN((maxH-minH)/256+1)) * 256
		sl := (minSL/axisStep + rng.IntN((maxSL-minSL)/axisStep+1)) * axisStep
		if used[[2]int{h, sl}] {
			continue
		}
		used[[2]int{h, sl}] = true
		cfg, err := core.FutureConfig(h, sl, 1)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := model.CachedLayerOps(cfg, 4); err != nil {
			return err
		}
		buildUS = append(buildUS, float64(time.Since(t0))/1e3)
		t1 := time.Now()
		if _, err := probe.OpModel.ProjectIteration(cfg, 4, hw.Identity()); err != nil {
			return err
		}
		missProjUS = append(missProjUS, float64(time.Since(t1))/1e3)
	}
	l["model.ops_build_us"] = median(buildUS)
	l["opmodel.miss_us"] = median(missProjUS)
	return nil
}
