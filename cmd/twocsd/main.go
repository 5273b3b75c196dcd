// Command twocsd is the long-running analysis daemon: the paper's
// strategy — profile one baseline, then project the design space — run
// as a service. Startup pays the expensive part once (the BERT baseline
// profile on the paper's MI210 node and the process-wide compiled
// caches); after that every POST is a projection over memoized state.
//
// Usage:
//
//	twocsd [-addr :7077] [-workers N] [tuning flags]
//
// Endpoints:
//
//	POST /v1/study   comm-fraction points + crossover tables as JSON;
//	                 cached by canonical request hash (X-Twocsd-Cache
//	                 says hit or miss); a "model" field selects any zoo
//	                 model (analyzers build lazily and are memoized)
//	POST /v1/sweep   the full grid streamed as NDJSON rows ending in a
//	                 trailer row; one sweep at a time, live on /progress;
//	                 the same "model" field selects the zoo baseline
//	/healthz /metrics /metrics.json /progress /debug/pprof/
//	                 the same observability plane as `twocs -http`
//
// SIGINT/SIGTERM drain gracefully: the run context is every request
// context's parent, so in-flight sweeps collapse into well-formed
// partial artifacts (canceled rows as nulls, trailer with the reason)
// while the listener refuses new work. A second signal kills the
// daemon.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"twocs/internal/core"
	"twocs/internal/hw"
	"twocs/internal/model"
	"twocs/internal/serve"
	"twocs/internal/telemetry"
)

func main() {
	// The first signal drains gracefully; default handling returns with
	// it, so a second signal kills a drain that is stuck.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop)
	err := runCtx(ctx, os.Args[1:], os.Stderr)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "twocsd:", err)
		os.Exit(1)
	}
}

// listenAddr publishes the bound listen address while the daemon is
// live ("" otherwise); tests poll it to reach a :0 listener.
var listenAddr atomic.Value // of string

func boundAddr() string {
	if v, ok := listenAddr.Load().(string); ok {
		return v
	}
	return ""
}

func runCtx(ctx context.Context, args []string, errw io.Writer) error {
	fs := flag.NewFlagSet("twocsd", flag.ContinueOnError)
	fs.SetOutput(errw)
	def := serve.DefaultConfig()
	addr := fs.String("addr", ":7077", "listen address (\":0\" picks a free port)")
	workers := fs.Int("workers", 0, "worker goroutines per grid request (0 = all CPUs)")
	cacheEntries := fs.Int("cache-entries", def.CacheEntries, "study cache entry bound (<= 0 disables)")
	cacheBytes := fs.Int64("cache-bytes", def.CacheBytes, "study cache total-bytes bound (<= 0 disables)")
	rate := fs.Float64("rate", def.Rate, "admission rate in requests/second (<= 0 disables)")
	burst := fs.Int("burst", def.Burst, "admission burst capacity")
	inflight := fs.Int("inflight", def.MaxInflight, "max concurrently admitted API requests")
	studyTimeout := fs.Duration("study-timeout", def.StudyTimeout, "per-request study computation deadline")
	sweepTimeout := fs.Duration("sweep-timeout", def.SweepTimeout, "per-request sweep streaming deadline")
	sample := fs.Duration("sample", time.Second, "metrics sampler interval (<= 0 disables)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (twocsd takes only flags)", fs.Arg(0))
	}

	cfg := def
	cfg.CacheEntries = *cacheEntries
	cfg.CacheBytes = *cacheBytes
	cfg.Rate = *rate
	cfg.Burst = *burst
	cfg.MaxInflight = *inflight
	cfg.StudyTimeout = *studyTimeout
	cfg.SweepTimeout = *sweepTimeout

	// Process-wide telemetry: one collector and one progress tracker for
	// the daemon's lifetime, so the analyzer's spans, the grid stream's
	// progress hooks, and the request counters all land on the same
	// /metrics page.
	col := telemetry.NewCollector()
	telemetry.Enable(col)
	defer telemetry.Enable(nil)
	prog := telemetry.NewProgress()
	telemetry.EnableProgress(prog)
	defer telemetry.EnableProgress(nil)

	var sampler *telemetry.Sampler
	if *sample > 0 {
		sampler = telemetry.NewSampler(col, *sample, 0)
		sampler.Start()
		defer sampler.Stop()
	}

	// The expensive once-per-process step: baseline profile + calibrated
	// operator model (§4.3.1), shared by every request thereafter.
	e, err := model.LookupZoo("BERT")
	if err != nil {
		return err
	}
	a, err := core.NewAnalyzer(hw.MI210Cluster(1, 0), e.Config, 4)
	if err != nil {
		return err
	}
	a.Workers = *workers

	s := serve.New(a, cfg, col, sampler)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		// Every request context descends from the run context: a signal
		// cancels in-flight computations (sweeps degrade to partial
		// artifacts with canceled trailers) before the drain below.
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	listenAddr.Store(ln.Addr().String())
	defer listenAddr.Store("")
	fmt.Fprintf(errw, "twocsd: listening on http://%s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		// The listener died on its own; nothing left to drain.
		return err
	case <-ctx.Done():
	}
	fmt.Fprintf(errw, "twocsd: shutting down\n")
	sctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
	defer cancel()
	sdErr := srv.Shutdown(sctx)
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return sdErr
}
