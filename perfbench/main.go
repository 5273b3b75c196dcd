// Command perfbench is the twocs end-to-end benchmark. One invocation
// runs one seeded workload for a fixed number of seconds, checks every
// output it produced, and prints one JSON result as the last line of
// standard output:
//
//	perfbench --workload sweep --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with the benchmark's own tracing off. With --trace 1 the same
// workload runs again with timing wrappers around the calls into each
// layer and the repo's telemetry collector on, and the result carries
// the per-layer metrics instead. See README.md for the workloads and
// the metric definitions.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string
	// probe runs only the workload's set-up, for measureSetup.
	probe bool
}

// workloadFunc runs one workload and reports what it measured.
type workloadFunc func(ctx context.Context, env *runEnv) (*report, error)

var workloads = map[string]workloadFunc{
	"sweep":    runSweep,
	"search":   runSearch,
	"study":    runStudy,
	"simulate": runSimulate,
}

func parseOptions(args []string, errw io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(errw)
	var o options
	var trace int
	var seed int64
	fs.StringVar(&o.workload, "workload", "", "workload to run: sweep, search, study or simulate")
	fs.Int64Var(&seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long the measured phase runs")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	fs.StringVar(&o.outDir, "out", ".bench_build", "directory for scratch files, span dumps and run records")
	fs.BoolVar(&o.probe, "setup-probe", false, "set up the workload, print ready and exit (used by the benchmark itself)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown --workload %q (want sweep, search, study or simulate)", o.workload)
	}
	if !(o.seconds > 0) || o.seconds > 600 {
		return o, fmt.Errorf("--seconds %g outside (0, 600]", o.seconds)
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace %d (want 0 or 1)", trace)
	}
	o.trace = trace == 1
	o.seed = uint64(seed)
	return o, nil
}

// result is the benchmark's contract line: the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is everything a run knows about itself beyond the contract
// line; it is printed to stdout before the result and kept on disk.
type record struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Trace      bool               `json:"trace"`
	CPUs       int                `json:"cpus"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GoVersion  string             `json:"go_version"`
	Commit     string             `json:"commit"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	Checks     []string           `json:"failed_checks"`
	Info       map[string]any     `json:"info,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
	WallS      float64            `json:"wall_s"`
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	start := time.Now()
	o, err := parseOptions(args, stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if o.probe {
		if err := setupProbe(ctx, o.workload, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench: setup probe:", err)
			return 1
		}
		return 0
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	env := newRunEnv(o, start)
	rep, err := workloads[o.workload](ctx, env)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if err := env.tr.write(filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	defs, values := endToEnd, rep.e2e
	if o.trace {
		defs, values = perLayer, rep.layer
	} else {
		// Kept as text: it reads +Inf when over 1% of requests failed,
		// which JSON numbers cannot hold.
		rep.info["latency_p99_ms"] = fmt.Sprint(rep.layer["latency_p99_ms"])
	}
	res := result{
		Correct:   len(rep.failedChecks) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// A per-layer metric with no samples (say, no traced cache
			// miss in a short run) reads 0 like one of another workload.
			ok, v = false, 0
		}
		if !ok && !o.trace {
			rep.failedChecks = append(rep.failedChecks, "metric "+d.name+" was not measured")
			res.Correct = false
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if res.Attempted < 1 {
		rep.failedChecks = append(rep.failedChecks, "no operation was attempted")
		res.Correct = false
		res.Attempted = 1
		res.Failed = 1
	}

	rec := record{
		Workload: o.workload, Seed: int64(o.seed), Seconds: o.seconds, Trace: o.trace,
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: sourceID(),
		Attempted: res.Attempted, Failed: res.Failed,
		Checks: rep.failedChecks, Info: rep.info, Metrics: map[string]float64{},
		WallS: time.Since(start).Seconds(),
	}
	if rec.Checks == nil {
		rec.Checks = []string{}
	}
	for name, m := range res.Metrics {
		rec.Metrics[name] = m.Value
	}
	for _, c := range rep.failedChecks {
		fmt.Fprintln(stderr, "perfbench: check failed:", c)
	}
	if err := writeRecord(stdout, o, rec); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// writeRecord prints the run record as one JSON line and keeps a copy
// under the output directory.
func writeRecord(stdout io.Writer, o options, rec record) error {
	b, err := json.Marshal(map[string]record{"record": rec})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", b)
	name := fmt.Sprintf("record-%s-seed%d-trace%t.json", o.workload, o.seed, o.trace)
	return os.WriteFile(filepath.Join(o.outDir, name), append(b, '\n'), 0o644)
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
