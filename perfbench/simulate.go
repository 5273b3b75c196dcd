package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"time"

	"twocs/internal/collective"
	"twocs/internal/core"
	"twocs/internal/dist"
	"twocs/internal/hw"
	"twocs/internal/model"
	"twocs/internal/sim"
	"twocs/internal/units"
)

// scalingTPs are the TP degrees the scaling study may split a device
// budget into; TP=1 keeps GPT-2 (25 heads) in the study.
var scalingTPs = []int{1, 2, 4, 8, 16, 32, 64, 128}

// simCall is one study call of the simulate workload.
type simCall struct {
	entry model.ZooEntry
	evo   hw.Evolution
	// devices > 0 selects ScalingStudyCtx over that budget; 0 selects
	// CaseStudyCtx at caseTP(entry) x 4 with the Fig-14 scenarios.
	devices int
}

func (c simCall) label() string {
	kind := "case"
	if c.devices > 0 {
		kind = fmt.Sprintf("scaling%d", c.devices)
	}
	return c.entry.Config.Name + "|" + c.evo.Name + "|" + kind
}

// caseTP picks the case study's TP degree for a zoo model: the largest
// power-of-two divisor of the model's own TP that divides its heads and
// feed-forward width, else its calibration degree.
func caseTP(e model.ZooEntry) int {
	for tp := e.TP; tp > 1; tp /= 2 {
		if e.Config.TPDivides(tp) {
			return tp
		}
	}
	return model.CalibrationTP(e.Config)
}

// simCalls lists every (zoo model x scenario x study) call, in an order
// the seed shuffles; results are digested in label order, so the
// digest does not depend on the order.
func simCalls(seed uint64) []simCall {
	var calls []simCall
	for _, e := range model.Zoo() {
		for _, evo := range hw.PaperScenarios() {
			for _, devices := range []int{64, 256, 0} {
				calls = append(calls, simCall{entry: e, evo: evo, devices: devices})
			}
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0x51a1))
	rng.Shuffle(len(calls), func(i, j int) { calls[i], calls[j] = calls[j], calls[i] })
	return calls
}

// simPass is one pass: every call, then the fidelity audit.
type simPass struct {
	wall   time.Duration
	cpu    time.Duration
	iters  int64
	rows   int64
	callMS []float64
	digest string
	audit  auditResult
	traced bool
}

// runSimulate runs the simulator-backed studies over the Table-2 zoo
// and the fidelity audit. Here dist compile and re-time, the sim event
// engine and kernels/collective pricing do the work; stream and serve
// do none.
func runSimulate(ctx context.Context, env *runEnv) (*report, error) {
	rep := newReport()
	setup, err := measureSetup(ctx, env, rep)
	if err != nil {
		return nil, err
	}
	an, err := newAnalyzer()
	if err != nil {
		return nil, err
	}
	calls := simCalls(env.seed)
	if env.trace {
		// Before the warm-up fills the compiled-program memo: cold
		// compiles, then warm re-times, of every plan the calls run.
		if err := simLayers(an, calls, rep.layer); err != nil {
			return nil, err
		}
	}
	warm, err := simOnce(ctx, env, an, calls, 0, false)
	if err != nil {
		return nil, err
	}
	var passes []simPass
	rtBefore := readRuntime()
	end := env.deadline()
	for i := 0; len(passes) < 3 || time.Now().Before(end); i++ {
		traced := env.trace && i%2 == 1
		p, err := simOnce(ctx, env, an, calls, int64(i+1), traced)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		rep.attempted += int64(len(calls)) + 1
		same := p.digest == warm.digest && p.audit.errPct == warm.audit.errPct //lint:ignore floatcmp the audit is deterministic: any difference is a defect
		rep.check(same, "pass %d: makespan digest %s / proj_err %v differ from warm-up's %s / %v",
			i, p.digest, p.audit.errPct, warm.digest, warm.audit.errPct)
		if !same {
			rep.failed++
		}
	}
	checkGolden(rep, "simulate_digest", warm.digest)
	checkGolden(rep, "proj_err_pct", fmt.Sprint(warm.audit.errPct))
	rep.check(warm.audit.points == 468, "audit priced %d points, want 468", warm.audit.points)
	rep.info["makespan_digest"] = warm.digest
	rep.info["audit_points"] = warm.audit.points
	rep.info["iterations_per_pass"] = warm.iters
	rep.info["passes"] = len(passes)

	var iters, rows, callMS, cpuMS, wallMS, plainCPU, tracedCPU, splitUS []float64
	for _, p := range passes {
		if p.traced {
			tracedCPU = append(tracedCPU, p.cpu.Seconds())
			continue
		}
		plainCPU = append(plainCPU, p.cpu.Seconds())
		iters = append(iters, float64(p.iters)/p.cpu.Seconds())
		rows = append(rows, float64(p.rows)/p.cpu.Seconds())
		callMS = append(callMS, p.callMS...)
		cpuMS = append(cpuMS, ms(p.cpu))
		wallMS = append(wallMS, ms(p.wall))
		splitUS = append(splitUS, float64(p.audit.splitTime)/1e3/float64(p.audit.points))
	}
	rep.info["pass_cpu_ms"] = cpuMS
	rep.info["pass_wall_ms"] = wallMS
	rep.e2e["setup_s"] = setup
	rep.e2e["rows_per_s"] = median(rows)
	// No HTTP hop: the client is in-process.
	rep.e2e["http_rows_per_s"] = median(rows)
	rep.e2e["latency_p50_ms"] = median(callMS)
	rep.e2e["iters_per_s"] = median(iters)
	rep.e2e["proj_err_pct"] = warm.audit.errPct
	rep.e2e["heap_growth_mb"] = heapGrowthMB(env.heapStart)
	rep.layer["latency_p99_ms"] = quantile(callMS, 0.99)
	if env.trace {
		var its int64
		for _, p := range passes {
			its += p.iters
		}
		addRuntimeDeltas(rep.layer, rtBefore, its)
		rep.layer["core.measured_split_us"] = median(splitUS)
		rep.layer["telemetry.overhead_pct"] = 100 * (median(tracedCPU)/median(plainCPU) - 1)
	}
	return rep, nil
}

// simOnce runs every call and the audit once.
func simOnce(ctx context.Context, env *runEnv, an *core.Analyzer, calls []simCall, trace int64, traced bool) (simPass, error) {
	p := simPass{traced: traced}
	var tr *tracer
	if traced {
		tr = env.tr
	}
	results := make(map[string]string, len(calls))
	passID := tr.id()
	cpu0 := cpuTime()
	t0 := time.Now()
	for _, c := range calls {
		cfg := c.entry.Config
		callCPU := cpuTime()
		c0 := time.Now()
		var line string
		if c.devices > 0 {
			out, err := an.ScalingStudyCtx(ctx, cfg, c.devices, scalingTPs, c.evo)
			if err != nil {
				return p, fmt.Errorf("%s: %w", c.label(), err)
			}
			for _, r := range out {
				line += fmt.Sprintf("%d/%d:%x:%x;", r.TP, r.DP, float64(r.Makespan), r.CommFraction)
			}
			p.iters += int64(len(out))
		} else {
			out, err := an.CaseStudyCtx(ctx, cfg, caseTP(c.entry), 4, c.evo, core.PaperScenariosFig14())
			if err != nil {
				return p, fmt.Errorf("%s: %w", c.label(), err)
			}
			for _, r := range out {
				line += fmt.Sprintf("%x:%x:%x;", float64(r.Makespan), r.SerializedCommFrac, r.ExposedDPFrac)
			}
			p.iters += int64(len(out))
		}
		tr.span(passID, trace, "core.study "+c.label(), c0, time.Since(c0))
		p.callMS = append(p.callMS, ms(cpuTime()-callCPU))
		results[c.label()] = line
	}
	a0 := time.Now()
	aud, err := runAudit(an)
	if err != nil {
		return p, err
	}
	if traced {
		auditID := tr.span(passID, trace, "audit", a0, time.Since(a0))
		tr.record(tr.id(), auditID, trace, "core.MeasuredLayerSplit", a0, aud.splitTime, int64(aud.points))
	}
	p.wall = time.Since(t0)
	p.cpu = cpuTime() - cpu0
	tr.record(passID, 0, trace, "simulate.pass", t0, p.wall, 1)
	p.audit = aud
	p.rows = p.iters + int64(aud.points)
	h := sha256.New()
	for _, k := range sortedKeys(results) {
		fmt.Fprintf(h, "%s=%s\n", k, results[k])
	}
	p.digest = hex.EncodeToString(h.Sum(nil))
	return p, nil
}

// simLayers times, for every distinct (model, TP) schedule shape the
// calls run, the process's first dist.CompileIteration of it and then
// warm CompiledIteration.Run calls, at the identity scenario. The plans
// are built the way ScalingStudyCtx and CaseStudyCtx build theirs; the
// DP degree of a shape's first plan stands for the others, since the
// compiled program does not depend on it.
func simLayers(an *core.Analyzer, calls []simCall, layer map[string]float64) error {
	type planKey struct {
		name string
		tp   int
	}
	seen := map[planKey]bool{}
	var compileMS, runUS, ops []float64
	var runTotal time.Duration
	var opsTotal int64
	for _, c := range calls {
		cfg := c.entry.Config
		var splits [][2]int
		if c.devices > 0 {
			for _, tp := range scalingTPs {
				if c.devices%tp == 0 && c.devices/tp >= 2 && cfg.TPDivides(tp) {
					splits = append(splits, [2]int{tp, c.devices / tp})
				}
			}
		} else {
			splits = append(splits, [2]int{caseTP(c.entry), 4})
		}
		for _, s := range splits {
			k := planKey{cfg.Name, s[0]}
			if seen[k] {
				continue
			}
			seen[k] = true
			plan, timer, err := simPlan(an, cfg, s[0], s[1])
			if err != nil {
				return err
			}
			t0 := time.Now()
			ci, err := dist.CompileIteration(plan, timer, dist.ScheduleOptions{})
			if err != nil {
				return err
			}
			compileMS = append(compileMS, ms(time.Since(t0)))
			const reps = 3
			t1 := time.Now()
			for i := 0; i < reps; i++ {
				if _, _, err := ci.Run(timer, sim.Config{}); err != nil {
					return err
				}
			}
			d := time.Since(t1) / reps
			runTotal += d
			n := ci.Program().NumOps()
			opsTotal += int64(n)
			runUS = append(runUS, float64(d)/1e3)
			ops = append(ops, float64(n))
		}
	}
	layer["dist.compile_ms"] = mean(compileMS)
	layer["dist.run_us"] = mean(runUS)
	layer["sim.ops_per_iter"] = mean(ops)
	layer["sim.host_ns_per_op"] = float64(runTotal) / float64(opsTotal)
	return nil
}

// simPlan builds one TP x DP plan and timer at the identity scenario,
// as the scaling and case studies do: ground-truth pricing from the
// analyzer's substrate, a cluster sized for TP x DP devices, and an
// inter-node link at 1/8 of the intra-node bandwidth where one is
// needed and the cluster has none.
func simPlan(an *core.Analyzer, cfg model.Config, tp, dp int) (dist.Plan, *dist.Timer, error) {
	gt, err := an.GroundTruthTimer(cfg, tp, hw.Identity())
	if err != nil {
		return dist.Plan{}, nil, err
	}
	timer := *gt
	timer.DP = dp
	cluster := hw.Identity().ApplyCluster(an.Cluster)
	cluster.NumNodes = (tp*dp + cluster.Node.Count - 1) / cluster.Node.Count
	if cluster.NumNodes > 1 && !cluster.InterNode.Valid() {
		cluster.InterNode = hw.Link{
			Bandwidth: units.ByteRate(float64(timer.TPModel.Path.Bandwidth) / 8),
			Latency:   5 * units.Microsecond,
		}
	}
	return dist.Plan{Model: cfg, TP: tp, DP: dp, Cluster: cluster, Algo: collective.Ring}, &timer, nil
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
