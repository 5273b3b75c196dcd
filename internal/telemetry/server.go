package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// The debug server is the live window into a running analysis: where
// -trace/-metrics flush at exit, the server answers *now*. It is
// opt-in (the CLI's -http flag), binds one listener, and serves:
//
//	/            index of the endpoints below
//	/healthz     liveness probe ("ok")
//	/metrics     Prometheus text: collector metrics + runtime + progress
//	/metrics.json  the same as JSON, plus the sampler's time series
//	/progress    the active streaming sweep's ProgressSnapshot as JSON
//	/debug/pprof/...  net/http/pprof profiles of the live process
//
// Shutdown is graceful and bounded by the caller's context; after it
// returns, the serve goroutine has exited and the listener is closed —
// the shutdown-hygiene tests hold the CLI to exactly that.

// Server is one live debug/metrics endpoint over a Collector, an
// optional Sampler, and the process-wide ActiveProgress.
type Server struct {
	debugHandlers
	srv  *http.Server
	ln   net.Listener
	done chan struct{}
}

// debugHandlers binds the debug endpoints to their data sources. It is
// shared between the CLI's standalone debug server and any service mux
// that mounts the same endpoints beside its own (see RegisterDebug) —
// the twocsd daemon's /metrics is this code.
type debugHandlers struct {
	col     *Collector
	sampler *Sampler
}

// RegisterDebug installs the live debug endpoints — /healthz, /metrics
// (Prometheus text), /metrics.json (plus the sampler's time series),
// /progress, and /debug/pprof/... — on mux. col and sampler may be nil;
// the endpoints then serve runtime and progress data only. This is how
// a long-running service (twocsd) exposes the same observability plane
// as the CLI's -http flag, on its own mux beside its API routes.
func RegisterDebug(mux *http.ServeMux, col *Collector, sampler *Sampler) {
	h := debugHandlers{col: col, sampler: sampler}
	mux.HandleFunc("/healthz", h.handleHealthz)
	mux.HandleFunc("/metrics", h.handleMetrics)
	mux.HandleFunc("/metrics.json", h.handleMetricsJSON)
	mux.HandleFunc("/progress", h.handleProgress)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// NewServer binds addr (host:port; ":0" picks a free port) and starts
// serving in a background goroutine. The caller owns shutdown: every
// successful NewServer must be paired with a Shutdown. col and sampler
// may be nil; the endpoints then serve runtime and progress data only.
func NewServer(addr string, col *Collector, sampler *Sampler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: debug server listen %s: %w", addr, err)
	}
	s := &Server{
		debugHandlers: debugHandlers{col: col, sampler: sampler},
		ln:            ln,
		done:          make(chan struct{}),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	RegisterDebug(mux, col, sampler)
	s.srv = &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() {
		defer close(s.done)
		// Serve returns ErrServerClosed after Shutdown; any other error
		// means the listener died, which the next scrape will surface.
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Shutdown gracefully stops the server: no new connections, in-flight
// requests drain until ctx expires, and the serve goroutine has exited
// when Shutdown returns.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	<-s.done
	return err
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, "twocs debug server\n\n"+
		"  /healthz        liveness probe\n"+
		"  /metrics        Prometheus text exposition\n"+
		"  /metrics.json   metrics + runtime + sampler series as JSON\n"+
		"  /progress       streaming sweep progress as JSON\n"+
		"  /debug/pprof/   live profiles (heap, cpu, goroutine, ...)\n")
}

func (s debugHandlers) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s debugHandlers) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.col.Snapshot().WritePrometheus(w); err != nil {
		return
	}
	if err := ReadRuntimeStats().WritePrometheus(w); err != nil {
		return
	}
	_ = ActiveProgress().Snapshot().WritePrometheus(w)
}

// handleMetricsJSON serves the metrics, runtime and progress read now,
// plus the sampler's series: enough to plot heap, goroutines and
// throughput over time without shipping every full snapshot.
func (s debugHandlers) handleMetricsJSON(w http.ResponseWriter, _ *http.Request) {
	body := struct {
		Metrics  Snapshot     `json:"metrics"`
		Runtime  RuntimeStats `json:"runtime"`
		Progress progressJSON `json:"progress"`
		Series   []Sample     `json:"series,omitempty"`
	}{
		Metrics:  s.col.Snapshot(),
		Runtime:  ReadRuntimeStats(),
		Progress: ActiveProgress().Snapshot().wire(true),
		Series:   s.sampler.Samples(),
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(body)
}

func (s debugHandlers) handleProgress(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = ActiveProgress().Snapshot().WriteJSON(w)
}
