package main

import (
	"context"
	"runtime"
	"time"

	"twocs/internal/core"
	"twocs/internal/stream"
	"twocs/internal/telemetry"
)

// searchScenarios sizes the search grid: Table-3 axes x 1000 scenarios
// is 156,000 rows per pass.
const searchScenarios = 1000

// searchPass is one pass of the search workload.
type searchPass struct {
	wall     time.Duration
	cpu      time.Duration
	frontier int
	digest   string
	traced   bool
	reducers []stream.Sink
	// Traced passes only: time inside each reducer.
	pareto, topk, marginals *timedSink
}

// runSearch streams the grid into the three online reducers only, with
// no row encoding: the reducers do nearly all the work.
func runSearch(ctx context.Context, env *runEnv) (*report, error) {
	rep := newReport()
	setup, err := measureSetup(ctx, env, rep)
	if err != nil {
		return nil, err
	}
	an, err := newAnalyzer()
	if err != nil {
		return nil, err
	}
	g := newGrid(searchScenarios)
	memo := memoCounters{}
	var passes []searchPass
	rtBefore := readRuntime()
	end := env.deadline()
	for i := 0; len(passes) < 3 || time.Now().Before(end); i++ {
		traced := env.trace && i%2 == 1
		p, err := searchOnce(ctx, env, an, g, int64(i+1), traced, memo)
		if err != nil {
			return nil, err
		}
		if len(passes) > 0 {
			passes[len(passes)-1].reducers = nil // keep only the last pass's
		}
		passes = append(passes, p)
		rep.attempted++
		same := p.digest == passes[0].digest && p.frontier == passes[0].frontier
		rep.check(same, "pass %d: digest %s (frontier %d) differs from pass 0's %s (frontier %d)",
			i, p.digest, p.frontier, passes[0].digest, passes[0].frontier)
		if !same {
			rep.failed++
		}
	}
	checkGolden(rep, "search_digest", passes[0].digest)
	rep.info["digest"] = passes[0].digest
	rep.info["frontier_rows"] = passes[0].frontier
	rep.info["rows_per_pass"] = g.rows()
	rep.info["passes"] = len(passes)

	var rate, cpuMS, wallMS, plainCPU, tracedCPU []float64
	for _, p := range passes {
		if p.traced {
			tracedCPU = append(tracedCPU, p.cpu.Seconds())
			continue
		}
		plainCPU = append(plainCPU, p.cpu.Seconds())
		rate = append(rate, float64(g.rows())/p.cpu.Seconds())
		cpuMS = append(cpuMS, ms(p.cpu))
		wallMS = append(wallMS, ms(p.wall))
	}
	aud, err := runAudit(an)
	if err != nil {
		return nil, err
	}
	rep.info["pass_wall_ms"] = wallMS
	rep.info["pass_cpu_ms"] = cpuMS
	rep.e2e["setup_s"] = setup
	rep.e2e["rows_per_s"] = median(rate)
	// No HTTP hop: the client is in-process, so the rows it receives
	// per second are rows_per_s.
	rep.e2e["http_rows_per_s"] = median(rate)
	rep.e2e["latency_p50_ms"] = median(cpuMS)
	rep.e2e["iters_per_s"] = 1 / median(plainCPU)
	rep.e2e["proj_err_pct"] = aud.errPct
	// The heap held at the end: the analyzer, its memo, and the last
	// pass's reducers with the digests they kept.
	rep.e2e["heap_growth_mb"] = heapGrowthMB(env.heapStart)
	runtime.KeepAlive(passes)
	rep.layer["latency_p99_ms"] = quantile(cpuMS, 0.99)
	if env.trace {
		addRuntimeDeltas(rep.layer, rtBefore, int64(len(passes))*g.rows())
		var pareto, topk, marg []float64
		for _, p := range passes {
			if p.traced {
				rows := float64(p.pareto.rows)
				pareto = append(pareto, float64(p.pareto.total())/rows)
				topk = append(topk, float64(p.topk.total())/rows)
				marg = append(marg, float64(p.marginals.total())/rows)
			}
		}
		l := rep.layer
		l["stream.pareto_ns_per_row"] = median(pareto)
		l["stream.topk_ns_per_row"] = median(topk)
		l["stream.marginals_ns_per_row"] = median(marg)
		l["stream.pareto_frontier_rows"] = float64(passes[0].frontier)
		hit, err := probeProjection(an, g)
		if err != nil {
			return nil, err
		}
		l["opmodel.hit_ns"] = hit
		engine, err := probeEngine(ctx, g.rows())
		if err != nil {
			return nil, err
		}
		l["parallel.ns_per_row"] = engine
		memo.report(l)
		l["telemetry.overhead_pct"] = 100 * (median(tracedCPU)/median(plainCPU) - 1)
	}
	return rep, nil
}

// searchOnce streams the grid into fresh TopK(10), Pareto and
// Marginals reducers and digests what they kept.
func searchOnce(ctx context.Context, env *runEnv, an *core.Analyzer, g gridSpec, trace int64, traced bool, memo memoCounters) (searchPass, error) {
	p := searchPass{traced: traced}
	top, err := stream.NewTopK(10)
	if err != nil {
		return p, err
	}
	front := stream.NewPareto()
	marg := stream.NewMarginals()
	sinks := []stream.Sink{top, front, marg}
	var col *telemetry.Collector
	if traced {
		col = telemetry.NewCollector()
		telemetry.Enable(col)
		p.topk = &timedSink{inner: top}
		p.pareto = &timedSink{inner: front}
		p.marginals = &timedSink{inner: marg}
		sinks = []stream.Sink{p.topk, p.pareto, p.marginals}
	}
	c0 := cpuTime()
	t0 := time.Now()
	err = g.stream(ctx, an, stream.Multi(sinks...))
	p.wall = time.Since(t0)
	p.cpu = cpuTime() - c0
	telemetry.Enable(nil)
	if err != nil {
		return p, err
	}
	if traced {
		memo.add(col)
		tr := env.tr
		id := tr.span(0, trace, "core.StreamEvolutionGridCtx", t0, p.wall)
		p.topk.recordUnder(tr, id, trace, "stream.TopK.Emit+Close", t0)
		p.pareto.recordUnder(tr, id, trace, "stream.Pareto.Emit+Close", t0)
		p.marginals.recordUnder(tr, id, trace, "stream.Marginals.Emit+Close", t0)
	}
	frontier := front.Frontier()
	p.frontier = len(frontier)
	margDigest, err := jsonDigest(marg.Axes())
	if err != nil {
		return p, err
	}
	p.digest = digest(append(top.Best(), frontier...)) + ":" + margDigest[:16]
	p.reducers = []stream.Sink{top, front, marg}
	return p, nil
}
