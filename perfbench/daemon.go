package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"twocs/internal/core"
	"twocs/internal/serve"
	"twocs/internal/telemetry"
)

// daemon is an in-process twocsd, wired as cmd/twocsd wires it: a
// process-wide telemetry collector, progress tracker and 1 s sampler,
// the serve handler on a loopback listener at port 0, and every
// request context derived from the run context.
type daemon struct {
	an      *core.Analyzer
	col     *telemetry.Collector
	sampler *telemetry.Sampler
	srv     *http.Server
	errc    chan error
	url     string
	client  *http.Client
	mw      *timingMiddleware // nil unless traced
}

// daemonConfig is the daemon configuration a workload runs with:
// twocsd's defaults, except that the study load turns the admission
// token bucket off (Rate <= 0, as `twocsd -rate 0` does) so that it
// measures serving and not the 50 req/s limiter.
func daemonConfig(workload string) serve.Config {
	cfg := serve.DefaultConfig()
	if workload == "study" {
		cfg.Rate = 0
	}
	return cfg
}

// startDaemon starts a daemon over an analyzer and returns once it
// answers /healthz. A non-nil tracer also wraps the handler in the
// timing middleware.
func startDaemon(ctx context.Context, an *core.Analyzer, cfg serve.Config, tr *tracer) (*daemon, error) {
	col := telemetry.NewCollector()
	telemetry.Enable(col)
	telemetry.EnableProgress(telemetry.NewProgress())
	sampler := telemetry.NewSampler(col, time.Second, 0)
	sampler.Start()
	d := &daemon{an: an, col: col, sampler: sampler, errc: make(chan error, 1)}

	var h http.Handler = serve.New(an, cfg, col, sampler).Handler()
	if tr != nil {
		d.mw = &timingMiddleware{next: h, tr: tr}
		h = d.mw
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.disable()
		return nil, err
	}
	d.srv = &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return ctx },
	}
	d.url = "http://" + ln.Addr().String()
	// As many connections as the study has senders, and no more than
	// the two CPUs of the box the benchmark was sized on.
	d.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     studyConns,
		MaxIdleConnsPerHost: studyConns,
		DisableCompression:  true,
	}}
	go func() { d.errc <- d.srv.Serve(ln) }()

	resp, err := d.client.Get(d.url + "/healthz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz answered %s", resp.Status)
		}
	}
	if err != nil {
		return nil, errors.Join(err, d.stop(ctx))
	}
	return d, nil
}

// stop drains the daemon, waits for its serve goroutine and sampler,
// and disables the process-wide telemetry it enabled. The drain gets
// five seconds even when ctx is already canceled, as cmd/twocsd's does.
func (d *daemon) stop(ctx context.Context) error {
	sctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
	defer cancel()
	err := d.srv.Shutdown(sctx)
	if serr := <-d.errc; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.client.CloseIdleConnections()
	d.disable()
	return err
}

func (d *daemon) disable() {
	d.sampler.Stop()
	telemetry.Enable(nil)
	telemetry.EnableProgress(nil)
}

// counter reads one of the daemon collector's counters.
func (d *daemon) counter(name string) int64 {
	v, _ := d.col.Snapshot().Counter(name)
	return v
}
