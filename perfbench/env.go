package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"twocs/internal/core"
	"twocs/internal/hw"
	"twocs/internal/model"
)

// runEnv is what every workload shares: its options, the live heap
// before any set-up, and the span recorder (nil when untraced), whose
// clock starts with the run.
type runEnv struct {
	options
	heapStart uint64
	tr        *tracer
}

func newRunEnv(o options, start time.Time) *runEnv {
	env := &runEnv{options: o, heapStart: liveHeap()}
	if o.trace {
		env.tr = newTracer(start)
	}
	return env
}

// deadline is when the measured phase that begins now should stop.
func (e *runEnv) deadline() time.Time {
	return time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
}

// report is what a workload measured and checked.
type report struct {
	e2e          map[string]float64
	layer        map[string]float64
	attempted    int64
	failed       int64
	failedChecks []string
	info         map[string]any
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}, info: map[string]any{}}
}

// check records a failed output check when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.failedChecks = append(r.failedChecks, fmt.Sprintf(format, args...))
	}
}

// liveHeap returns the live heap in bytes right after a full
// collection. The second collection frees what the first only moved
// into sync.Pool victim caches.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heapGrowthMB is the post-GC live heap now minus base, in MB.
func heapGrowthMB(base uint64) float64 {
	return (float64(liveHeap()) - float64(base)) / (1 << 20)
}

// rtCounters are the runtime counters the traced run reports as
// deltas per operation.
type rtCounters struct {
	allocBytes uint64
	gcCycles   uint32
	pauseNS    uint64
}

func readRuntime() rtCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return rtCounters{allocBytes: ms.TotalAlloc, gcCycles: ms.NumGC, pauseNS: ms.PauseTotalNs}
}

// addRuntimeDeltas reports the runtime counters accumulated since
// before, with allocation normalised per operation.
func addRuntimeDeltas(layer map[string]float64, before rtCounters, ops int64) {
	after := readRuntime()
	if ops < 1 {
		ops = 1
	}
	layer["runtime.alloc_bytes_per_op"] = float64(after.allocBytes-before.allocBytes) / float64(ops)
	layer["runtime.gc_cycles"] = float64(after.gcCycles - before.gcCycles)
	layer["runtime.gc_pause_ms"] = float64(after.pauseNS-before.pauseNS) / 1e6
}

// newAnalyzer builds the analyzer twocsd and the CLI build: the BERT
// baseline profiled at TP=4 on the paper's MI210 node, with the
// operator model calibrated from it. Workers 0 uses every CPU.
func newAnalyzer() (*core.Analyzer, error) {
	e, err := model.LookupZoo("BERT")
	if err != nil {
		return nil, err
	}
	return core.NewAnalyzer(hw.MI210Cluster(1, 0), e.Config, 4)
}

// setupRepeats is how many set-ups a run times, so that setup_s is a
// median and not one sample.
const setupRepeats = 11

// median returns the middle value of xs (the mean of the two middle
// values for an even count); NaN for an empty slice.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks; NaN for an empty slice. +Inf entries sort
// last, so a failed request counts as slower than every success.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if hi >= len(s) {
		hi = len(s) - 1
	}
	if lo == hi || math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// sourceID identifies the code being measured: the VCS revision when
// the binary was built inside a repository, otherwise a SHA-256 over
// the module's Go sources and go.mod files, so records from a plain
// checkout still say which code they measured.
func sourceID() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	root, err := moduleRoot()
	if err != nil {
		return "unknown"
	}
	h := sha256.New()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// moduleRoot finds the twocs module root: the nearest directory at or
// above the working directory whose go.mod declares module twocs.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(strings.TrimSpace(string(b)), "module twocs\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no twocs go.mod above the working directory")
		}
		dir = parent
	}
}

// setupProbe is the child side of measureSetup: it sets the workload
// up as a fresh process would (calibrate the analyzer and, for the
// workloads that serve, start the daemon and wait until it answers),
// prints "ready" with the CPU seconds it has used, and tears down.
func setupProbe(ctx context.Context, workload string, stdout io.Writer) error {
	an, err := newAnalyzer()
	if err != nil {
		return err
	}
	if workload != "sweep" && workload != "study" {
		_, err := fmt.Fprintf(stdout, "ready %g\n", cpuTime().Seconds())
		return err
	}
	d, err := startDaemon(ctx, an, daemonConfig(workload), nil)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "ready %g\n", cpuTime().Seconds())
	return errors.Join(err, d.stop(ctx))
}

// measureSetup returns the median set-up time in seconds over
// setupRepeats fresh processes of this binary in probe mode: the CPU
// time each had used, from exec until it was ready. Set-up is what a
// user pays on every start of the CLI or the daemon, so each sample
// starts cold: no memo of an earlier set-up survives into it. The
// probes' wall times go into the run record.
func measureSetup(ctx context.Context, env *runEnv, rep *report) (float64, error) {
	s, wall, err := probeSetups(ctx, env)
	rep.info["setup_wall_s"] = wall
	return s, err
}

func probeSetups(ctx context.Context, env *runEnv) (float64, []float64, error) {
	exe := os.Args[0]
	cpu := make([]float64, 0, setupRepeats)
	wall := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		cmd := exec.CommandContext(ctx, exe, "--setup-probe", "--workload", env.workload, "--out", env.outDir)
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return 0, nil, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, nil, err
		}
		line, readErr := bufio.NewReader(out).ReadString('\n')
		d := time.Since(t0)
		if err := errors.Join(readErr, cmd.Wait()); err != nil {
			return 0, nil, fmt.Errorf("setup probe: %w", err)
		}
		var s float64
		if _, err := fmt.Sscanf(line, "ready %g\n", &s); err != nil {
			return 0, nil, fmt.Errorf("setup probe printed %q", line)
		}
		cpu = append(cpu, s)
		wall = append(wall, d.Seconds())
	}
	return median(cpu), wall, nil
}

// cpuTime is the CPU time the process has used so far, user and
// system, across all threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
