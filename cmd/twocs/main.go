// Command twocs runs the Comp-vs-Comm analyses from the command line.
//
// Usage:
//
//	twocs [-workers N] <subcommand> [flags]
//
// The global -workers flag bounds the goroutines the grid studies fan
// out over: 0 (the default) uses every CPU, 1 forces the sequential
// path. Results are byte-identical at any worker count.
//
// Subcommands:
//
//	zoo          Table 2: the published-model zoo and parameter counts
//	memory       Figure 6: model memory demand vs device capacity trend
//	algorithmic  Figure 7: algorithmic slack and edge scaling
//	tp           Figure 9b: required tensor-parallel scaling
//	serialized   Figures 10/12: serialized communication fraction grid
//	sweep-stream streaming design-space grid with online digests
//	overlapped   Figures 11/13: overlapped communication percentage grid
//	casestudy    Figure 14: end-to-end serialized + overlapped case study
//	validate     Figure 15: operator-level model accuracy
//	speedup      §4.3.8: profiling-cost comparison (2100x / 1.5x claims)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime/pprof"
	"sync/atomic"
	"syscall"
	"time"

	"twocs/internal/core"
	"twocs/internal/hw"
	"twocs/internal/model"
	"twocs/internal/parallel"
	"twocs/internal/report"
	"twocs/internal/telemetry"
	"twocs/internal/units"
)

func main() {
	// SIGINT/SIGTERM cancel the run's context: sweeps stop claiming grid
	// points, partial results render, and the deferred telemetry/profile
	// flushes in runCtx still execute. Default handling returns as soon
	// as the context is canceled, so a second signal kills a run that is
	// stuck, say in a write to a sink nobody drains.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop)
	err := runCtx(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "twocs:", err)
		var pan *parallel.PanicError
		if errors.As(err, &pan) {
			fmt.Fprintf(os.Stderr, "twocs: panic stack:\n%s", pan.Stack)
		}
		os.Exit(exitCode(err))
	}
}

// exitCode maps an error to the documented exit status: 3 for a run
// that was interrupted, timed out, or produced only partial results;
// 1 for every other failure.
func exitCode(err error) int {
	var pe *parallel.PartialError
	if errors.As(err, &pe) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return 3
	}
	return 1
}

// workerCount is the global -workers setting consumed by newAnalyzer:
// 0 selects runtime.NumCPU(), 1 forces sequential sweeps.
var workerCount int

// telemetryOpts carries the observability flags. They are registered on
// the global flag set AND (via newFlagSet) on every subcommand's, so
// `twocs -trace run.json serialized` and `twocs serialized -trace
// run.json` both work; telemetry output goes to files and stderr only,
// leaving subcommand stdout byte-identical with and without the flags.
var telemetryOpts struct {
	trace   string // write a Chrome trace of this run's spans
	metrics bool   // dump the metrics snapshot to metricsSink at exit
}

// metricsSink receives the -metrics dump; tests substitute a buffer.
var metricsSink io.Writer = os.Stderr

// heartbeatSink receives the -progress NDJSON heartbeat events; tests
// substitute a buffer. Heartbeats go to stderr so subcommand stdout
// stays byte-identical with and without live observability.
var heartbeatSink io.Writer = os.Stderr

// debugAddr publishes the -http server's bound address while a run is
// live ("" otherwise); tests poll it to scrape a run mid-flight.
var debugAddr atomic.Value // of string

func debugServerAddr() string {
	if v, ok := debugAddr.Load().(string); ok {
		return v
	}
	return ""
}

// addSharedFlags registers the flags every subcommand shares. Defaults
// are the variables' current values, so a value parsed in the global
// position survives the subcommand's own Parse.
func addSharedFlags(fs *flag.FlagSet) {
	fs.IntVar(&workerCount, "workers", workerCount,
		"worker goroutines for grid sweeps (0 = all CPUs, 1 = sequential)")
	fs.StringVar(&telemetryOpts.trace, "trace", telemetryOpts.trace,
		"write a Chrome trace of this run's telemetry spans to `file`")
	fs.BoolVar(&telemetryOpts.metrics, "metrics", telemetryOpts.metrics,
		"print the telemetry metrics snapshot to stderr after the subcommand")
}

// newFlagSet builds a subcommand flag set with the shared observability
// flags registered. The gantt subcommand keeps its pre-existing -trace
// flag (it exports the *simulated* iteration's trace); for gantt the
// telemetry trace is only reachable from the global position.
func newFlagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.IntVar(&workerCount, "workers", workerCount,
		"worker goroutines for grid sweeps (0 = all CPUs, 1 = sequential)")
	fs.BoolVar(&telemetryOpts.metrics, "metrics", telemetryOpts.metrics,
		"print the telemetry metrics snapshot to stderr after the subcommand")
	if name != "gantt" {
		fs.StringVar(&telemetryOpts.trace, "trace", telemetryOpts.trace,
			"write a Chrome trace of this run's telemetry spans to `file`")
	}
	return fs
}

// run executes one CLI invocation with no external cancellation; tests
// and library callers use it. runCtx is the signal- and timeout-aware
// entry point main uses.
func run(args []string, w io.Writer) error {
	return runCtx(context.Background(), args, w)
}

func runCtx(ctx context.Context, args []string, w io.Writer) (err error) {
	// Reset shared flag state: run is re-entered by tests, and the
	// current-value-as-default registration below would otherwise leak
	// one invocation's flags into the next.
	workerCount = 0
	telemetryOpts.trace, telemetryOpts.metrics = "", false

	global := flag.NewFlagSet("twocs", flag.ContinueOnError)
	addSharedFlags(global)
	cpuprofile := global.String("cpuprofile", "",
		"write a runtime/pprof CPU profile of this run to `file` (global position only)")
	memprofile := global.String("memprofile", "",
		"write a heap profile to `file` at exit (global position only)")
	timeout := global.Duration("timeout", 0,
		"abort the run after this duration, keeping partial results (global position only)")
	httpAddr := global.String("http", "",
		"serve live /metrics, /metrics.json, /progress, /healthz and /debug/pprof on `addr` (e.g. :8080; global position only)")
	sampleEvery := global.Duration("sample", 0,
		"sampler interval of -http's /metrics.json series (0 = 1s; unused without -http; global position only)")
	progressEvery := global.Duration("progress", 0,
		"emit an NDJSON progress heartbeat to stderr every `interval` (global position only)")
	global.Usage = usage
	if err := global.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return err
	}
	args = global.Args()
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing subcommand")
	}
	cmd, rest := args[0], args[1:]

	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Fprintf(os.Stderr, "twocs: cpu profile written to %s\n", *cpuprofile)
		}()
	}

	// Collect for the whole dispatch: the subcommand's own flag parse
	// may still enable -trace/-metrics, so whether to *export* is only
	// decided afterwards. The collector stores at most
	// telemetry.MaxSpans spans (a few MB), and a streamed sweep records
	// one per chunk, not per row; the zero-cost no-op path is for
	// library and benchmark use, where no collector is ever enabled.
	//
	// Export and the heap profile run from a defer against the named
	// return, so a failing, timed-out, or interrupted subcommand still
	// flushes its artifacts — the telemetry of a dying run is exactly
	// the telemetry worth keeping.
	col := telemetry.NewCollector()
	telemetry.Enable(col)
	defer telemetry.Enable(nil)
	defer func() {
		if expErr := exportTelemetry(col); expErr != nil && err == nil {
			err = expErr
		}
		if *memprofile != "" {
			if memErr := writeHeapProfile(*memprofile); memErr != nil && err == nil {
				err = memErr
			}
		}
	}()

	// Live observability plane. A process-wide Progress tracker is always
	// armed alongside the collector (the grid stream's hooks are no-ops
	// against an idle tracker), and -http serves everything live, with a
	// sampler recording the /metrics.json series (every -sample, default
	// 1s); without -http nothing reads the series, so no sampler runs.
	// All of it tears down before the telemetry export above runs, so a
	// SIGINT or -timeout still flushes artifacts after the server and
	// sampler goroutines have exited.
	prog := telemetry.NewProgress()
	telemetry.EnableProgress(prog)
	defer telemetry.EnableProgress(nil)

	if *httpAddr != "" {
		interval := *sampleEvery
		if interval <= 0 {
			interval = time.Second
		}
		sampler := telemetry.NewSampler(col, interval, 0)
		sampler.Start()
		defer sampler.Stop()
		srv, srvErr := telemetry.NewServer(*httpAddr, col, sampler)
		if srvErr != nil {
			return srvErr
		}
		debugAddr.Store(srv.Addr())
		fmt.Fprintf(os.Stderr, "twocs: debug server listening on http://%s\n", srv.Addr())
		defer func() {
			debugAddr.Store("")
			// The run's ctx is likely already canceled here (that is how
			// SIGINT and -timeout end a run); shutdown needs its own live
			// deadline to drain in-flight scrapes.
			sctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 2*time.Second)
			defer cancel()
			if sdErr := srv.Shutdown(sctx); sdErr != nil && err == nil {
				err = sdErr
			}
		}()
	}

	if *progressEvery > 0 {
		stopHeartbeats := startHeartbeats(prog, *progressEvery)
		defer stopHeartbeats()
	}

	return dispatch(ctx, cmd, rest, w)
}

// startHeartbeats emits one NDJSON progress event to heartbeatSink
// every interval until the returned stop function runs. Stop emits one
// final event, so the stream's last line always reflects the finished
// (or canceled) run.
func startHeartbeats(p *telemetry.Progress, interval time.Duration) func() {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				_ = p.Snapshot().WriteHeartbeat(heartbeatSink)
			}
		}
	}()
	return func() {
		close(stop)
		<-done
		_ = p.Snapshot().WriteHeartbeat(heartbeatSink)
	}
}

func exportTelemetry(col *telemetry.Collector) error {
	if telemetryOpts.trace != "" {
		f, err := os.Create(telemetryOpts.trace)
		if err != nil {
			return err
		}
		if err := col.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "twocs: telemetry trace written to %s (open in Perfetto or chrome://tracing)\n",
			telemetryOpts.trace)
	}
	if telemetryOpts.metrics {
		fmt.Fprintln(metricsSink, "# twocs telemetry metrics")
		if err := col.Snapshot().WriteMetrics(metricsSink); err != nil {
			return err
		}
	}
	return nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := pprof.WriteHeapProfile(f); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "twocs: heap profile written to %s\n", path)
	return nil
}

// dispatch routes to the subcommand. The context reaches the commands
// that drive long sweeps or simulations (cancellation stops their grid
// fan-out mid-run); the quick table printers ignore it.
func dispatch(ctx context.Context, cmd string, rest []string, w io.Writer) error {
	switch cmd {
	case "zoo":
		return cmdZoo(rest, w)
	case "memory":
		return cmdMemory(rest, w)
	case "algorithmic":
		return cmdAlgorithmic(rest, w)
	case "tp":
		return cmdTP(rest, w)
	case "serialized":
		return cmdSerialized(ctx, rest, w)
	case "sweep-stream":
		return cmdSweepStream(ctx, rest, w)
	case "overlapped":
		return cmdOverlapped(ctx, rest, w)
	case "casestudy":
		return cmdCaseStudy(ctx, rest, w)
	case "validate":
		return cmdValidate(rest, w)
	case "speedup":
		return cmdSpeedup(ctx, rest, w)
	case "pipeline":
		return cmdPipeline(rest, w)
	case "precision":
		return cmdPrecision(rest, w)
	case "techniques":
		return cmdTechniques(rest, w)
	case "zero":
		return cmdZero(rest, w)
	case "moe":
		return cmdMoE(rest, w)
	case "inference":
		return cmdInference(rest, w)
	case "gantt":
		return cmdGantt(rest, w)
	case "scaling":
		return cmdScaling(ctx, rest, w)
	case "timeline":
		return cmdTimeline(ctx, rest, w)
	case "calibrate":
		return cmdCalibrate(rest, w)
	case "project":
		return cmdProject(rest, w)
	case "memsim":
		return cmdMemSim(rest, w)
	case "diagnose":
		return cmdDiagnose(rest, w)
	case "degradation":
		return cmdDegradation(ctx, rest, w)
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: twocs [-workers N] [observability flags] <subcommand> [flags]

global flags:
  -workers N      worker goroutines for grid sweeps (0 = all CPUs, 1 = sequential)
  -timeout D      abort the run after duration D (e.g. 30s), keeping partial
                  results (global position only)
  -trace FILE     write a Chrome trace of the engine's telemetry spans
                  (Perfetto-loadable; also accepted after the subcommand,
                  except for gantt, whose -trace exports the simulated run)
  -metrics        print the telemetry metrics snapshot to stderr at exit
  -cpuprofile F   write a runtime/pprof CPU profile (global position only)
  -memprofile F   write a heap profile at exit (global position only)
  -http ADDR      serve live /metrics (Prometheus), /metrics.json, /progress,
                  /healthz and /debug/pprof on ADDR, e.g. :8080 (global
                  position only)
  -sample D       sampler interval of the -http /metrics.json series
                  (default 1s; unused without -http; global position only)
  -progress D     emit an NDJSON progress heartbeat to stderr every D
                  (global position only)

exit status:
  0  success
  1  error
  3  interrupted (SIGINT/SIGTERM) or timed out; any partial results were
     printed with "(canceled)" cells and telemetry/profiles were flushed

subcommands:
  zoo          Table 2: published-model zoo and parameter counts
  memory       Figure 6: memory demand vs capacity trends
  algorithmic  Figure 7: algorithmic slack and edge scaling
  tp           Figure 9b: required tensor-parallel scaling
  serialized   Figures 10/12: serialized comm fraction (-flopbw 1|2|4)
  sweep-stream stream the (evolution × H × SL × TP) design-space grid as
               NDJSON/CSV rows with online digests (-out, -format,
               -scenarios, -topk, -pareto, -marginals); bounded memory
               at any grid size
  overlapped   Figures 11/13: overlapped comm percentage (-flopbw, -tp)
  casestudy    Figure 14: end-to-end case study
  validate     Figure 15: operator-level model accuracy
  speedup      profiling-cost comparison (2100x / 1.5x)

extensions:
  pipeline     §6.1.2: pipeline-parallel bubble and transfer costs
  precision    §6.2: number-format study (FP32/FP16/BF16/FP8)
  techniques   §5: communication-acceleration techniques
  zero         §6.1.3: ZeRO sharding vs plain data parallelism
  moe          §6.1.1: Mixture-of-Experts all-to-all costs
  inference    §6.3: forward-only comm share
  gantt        draw one simulated iteration as an ASCII Gantt chart
  diagnose     per-operator projection-error audit (-json)
  memsim       simulate one iteration's memory timeline
  timeline     comm share of every zoo model at its era's TP
  scaling      throughput vs TP×DP split of a fixed device budget
  degradation  comm fraction under partial hardware failure (-straggler)
  calibrate    profile the baseline and save the operator model (-o)
  project      project a config from a saved calibration (-calibration)`)
}

// newAnalyzer builds the standard analyzer: BERT baseline at TP=4 on the
// paper's MI210 node (§4.3.1), with the global -workers setting applied.
func newAnalyzer() (*core.Analyzer, error) {
	e, err := model.LookupZoo("BERT")
	if err != nil {
		return nil, err
	}
	a, err := core.NewAnalyzer(hw.MI210Cluster(1, 0), e.Config, 4)
	if err != nil {
		return nil, err
	}
	a.Workers = workerCount
	return a, nil
}

func cmdZoo(args []string, w io.Writer) error {
	fs := newFlagSet("zoo")
	csv := fs.Bool("csv", false, "emit CSV")
	if err := fs.Parse(args); err != nil {
		return err
	}
	t := report.NewTable("Table 2: NLP model hyperparameters",
		"model", "year", "layers", "H", "heads", "SL", "FC", "type",
		"paper size (B)", "computed (B)")
	for _, e := range model.Zoo() {
		c := e.Config
		t.AddRow(c.Name, fmt.Sprint(e.Year), fmt.Sprint(c.Layers),
			fmt.Sprint(c.Hidden), fmt.Sprint(c.Heads), fmt.Sprint(c.SeqLen),
			fmt.Sprint(c.FCDim), c.Kind.String(),
			report.F(e.PaperSizeB), report.F(c.Params()/1e9))
	}
	if *csv {
		return t.RenderCSV(w)
	}
	return t.Render(w)
}

func cmdMemory(args []string, w io.Writer) error {
	fs := newFlagSet("memory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	capAt := func(year int) (float64, error) {
		c, err := hw.CapacityAt(year)
		return float64(c), err
	}
	rows, err := core.MemoryTrend(model.Zoo(), capAt)
	if err != nil {
		return err
	}
	t := report.NewTable("Figure 6: model memory demand (H·SL) vs device capacity (normalized to BERT)",
		"model", "year", "demand (norm)", "capacity (norm)", "gap")
	for _, r := range rows {
		t.AddRow(r.Model, fmt.Sprint(r.Year), report.F(r.NormDemand),
			report.F(r.NormCapacity), report.F(r.NormDemand/r.NormCapacity))
	}
	return t.Render(w)
}

func cmdAlgorithmic(args []string, w io.Writer) error {
	fs := newFlagSet("algorithmic")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rows, err := core.AlgorithmicScaling(model.Zoo())
	if err != nil {
		return err
	}
	t := report.NewTable("Figure 7: algorithmic scaling of slack (SL·B) and edge ((H+SL)/TP), normalized to BERT",
		"model", "year", "slack", "edge", "norm slack", "norm edge")
	var slacks, edges []float64
	for _, r := range rows {
		t.AddRow(r.Model, fmt.Sprint(r.Year), report.F(r.Slack), report.F(r.Edge),
			report.F(r.NormSlack), report.F(r.NormEdge))
		slacks = append(slacks, r.NormSlack)
		edges = append(edges, r.NormEdge)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "  slack shape: %s   edge shape: %s\n",
		report.Sparkline(slacks), report.Sparkline(edges))
	last := rows[len(rows)-1]
	fmt.Fprintf(w, "  slack drop vs BERT: %s   edge drop vs BERT: %s (paper: ~75%% and ~80%%)\n",
		units.Percent(1-last.NormSlack), units.Percent(1-last.NormEdge))
	return nil
}

func cmdTP(args []string, w io.Writer) error {
	fs := newFlagSet("tp")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ests, err := distEstimates()
	if err != nil {
		return err
	}
	t := report.NewTable("Figure 9b: required TP scaling (base_TP=8 × p/s)",
		"model", "year", "size ratio p", "capacity scale s", "p/s", "required TP")
	for _, e := range ests {
		t.AddRow(e.Model, fmt.Sprint(e.Year), report.F(e.SizeRatio),
			report.F(e.CapacityScale), report.F(e.TPScale), report.F(e.RequiredTP))
	}
	return t.Render(w)
}

func cmdSerialized(ctx context.Context, args []string, w io.Writer) error {
	fs := newFlagSet("serialized")
	flopbw := fs.Float64("flopbw", 1, "flop-vs-bw hardware scaling (1, 2 or 4)")
	b := fs.Int("b", 1, "batch size")
	csv := fs.Bool("csv", false, "emit CSV")
	if err := fs.Parse(args); err != nil {
		return err
	}
	a, err := newAnalyzer()
	if err != nil {
		return err
	}
	pts, err := a.SerializedSweepCtx(ctx, core.Table3Hs(), core.Table3SLs(), core.Table3TPs(), *b, evoFlag(*flopbw))
	pe, partial := partialSweep(err)
	if err != nil && !partial {
		return err
	}
	title := fmt.Sprintf("Figure 10/12: serialized comm fraction of training time (flop-vs-bw %gx, B=%d)", *flopbw, *b)
	t := report.NewTable(title, "H", "SL", "TP", "comm fraction (%)")
	for i, p := range pts {
		frac := report.Pct(p.Fraction)
		if partial && i >= pe.Done {
			frac = canceledCell
		}
		t.AddRow(fmt.Sprint(p.H), fmt.Sprint(p.SL), fmt.Sprint(p.TP), frac)
	}
	if *csv {
		if rErr := t.RenderCSV(w); rErr != nil {
			return rErr
		}
		return err
	}
	if rErr := t.Render(w); rErr != nil {
		return rErr
	}
	return err
}

func cmdOverlapped(ctx context.Context, args []string, w io.Writer) error {
	fs := newFlagSet("overlapped")
	flopbw := fs.Float64("flopbw", 1, "flop-vs-bw hardware scaling (1, 2 or 4)")
	tp := fs.Int("tp", 16, "tensor-parallel degree of the sliced model")
	csv := fs.Bool("csv", false, "emit CSV")
	if err := fs.Parse(args); err != nil {
		return err
	}
	a, err := newAnalyzer()
	if err != nil {
		return err
	}
	pts, err := a.OverlappedSweepCtx(ctx, core.Table3Hs(), core.Table3SLs(), *tp, evoFlag(*flopbw))
	pe, partial := partialSweep(err)
	if err != nil && !partial {
		return err
	}
	title := fmt.Sprintf("Figure 11/13: overlapped comm as %% of compute (flop-vs-bw %gx, TP=%d); >=100 means exposed", *flopbw, *tp)
	t := report.NewTable(title, "H", "SL·B", "overlap (%)")
	for i, p := range pts {
		pct := fmt.Sprintf("%.1f", p.Percent)
		if partial && i >= pe.Done {
			pct = canceledCell
		}
		t.AddRow(fmt.Sprint(p.H), fmt.Sprint(p.SLB), pct)
	}
	if *csv {
		if rErr := t.RenderCSV(w); rErr != nil {
			return rErr
		}
		return err
	}
	if rErr := t.Render(w); rErr != nil {
		return rErr
	}
	return err
}

func cmdCaseStudy(ctx context.Context, args []string, w io.Writer) error {
	fs := newFlagSet("casestudy")
	layers := fs.Int("layers", 16, "layer count to simulate (fractions are stable beyond ~8)")
	flopbw := fs.Float64("flopbw", 4, "flop-vs-bw hardware scaling")
	if err := fs.Parse(args); err != nil {
		return err
	}
	a, err := newAnalyzer()
	if err != nil {
		return err
	}
	cfg, err := core.FutureConfig(65536, 4096, 1)
	if err != nil {
		return err
	}
	cfg.Layers = *layers
	res, err := a.CaseStudyCtx(ctx, cfg, 128, 4, hw.FlopVsBWScenario(*flopbw), core.PaperScenariosFig14())
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("Figure 14: H=64K B=1 SL=4K TP=128 DP=4, flop-vs-bw %gx (paper: 47%% serialized + 9%% overlapped-hidden)", *flopbw),
		"scenario", "makespan", "compute %", "serialized %", "DP hidden %", "DP exposed %")
	for _, r := range res {
		t.AddRow(r.Scenario.Name, r.Makespan.String(), report.Pct(r.ComputeFrac),
			report.Pct(r.SerializedCommFrac), report.Pct(r.HiddenDPFrac), report.Pct(r.ExposedDPFrac))
	}
	return t.Render(w)
}

func cmdValidate(args []string, w io.Writer) error {
	fs := newFlagSet("validate")
	if err := fs.Parse(args); err != nil {
		return err
	}
	results, err := runValidationSuite()
	if err != nil {
		return err
	}
	t := report.NewTable("Figure 15: operator-level model accuracy (projected vs measured)",
		"sweep", "points", "geomean err (%)", "max err (%)", "paper")
	paper := map[string]string{
		"gemm-vs-sl":        "~15%",
		"gemm-vs-h":         "~15%",
		"layernorm-vs-sl":   "~7%",
		"layernorm-vs-h":    "~7%",
		"allreduce-vs-size": "~11%",
	}
	for _, v := range results {
		t.AddRow(v.Name, fmt.Sprint(len(v.Points)),
			fmt.Sprintf("%.1f", v.GeoMeanErr*100),
			fmt.Sprintf("%.1f", v.MaxErr*100), paper[v.Name])
	}
	return t.Render(w)
}

func cmdSpeedup(ctx context.Context, args []string, w io.Writer) error {
	fs := newFlagSet("speedup")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rep, roiSpeedup, err := profilingSpeedup(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Profiling-cost comparison (§4.3.8)\n")
	fmt.Fprintf(w, "  exhaustive (all %d sweep configs end-to-end): %v\n",
		core.SweepConfigCount(), rep.Exhaustive)
	fmt.Fprintf(w, "  strategy (one baseline + collective sweep):   %v\n", rep.Strategy)
	fmt.Fprintf(w, "  speedup: %.0fx   (paper: ~2100x)\n", rep.Speedup)
	fmt.Fprintf(w, "  ROI vs full-iteration speedup: %.2fx (paper: ~1.5x)\n", roiSpeedup)
	return nil
}
