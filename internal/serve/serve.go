package serve

import (
	"context"
	"net/http"
	"sync"
	"time"

	"twocs/internal/core"
	"twocs/internal/memo"
	"twocs/internal/model"
	"twocs/internal/telemetry"
)

// Config sizes the daemon's protection mechanisms. The zero value is
// not useful; start from DefaultConfig.
type Config struct {
	// CacheEntries and CacheBytes bound the study result cache
	// (non-positive disables that bound; both non-positive disables
	// caching).
	CacheEntries int
	CacheBytes   int64
	// Rate and Burst shape the admission token bucket in requests per
	// second; Rate <= 0 disables rate limiting.
	Rate  float64
	Burst int
	// MaxInflight caps concurrently admitted API requests.
	MaxInflight int
	// StudyTimeout and SweepTimeout bound each request's computation;
	// the deadline threads through the ctx-aware grid entry points, so
	// an expired study returns 504 and an expired sweep degrades to a
	// partial artifact with a deadline trailer.
	StudyTimeout time.Duration
	SweepTimeout time.Duration
	// MaxStudyPoints and MaxSweepPoints bound the grid cardinality a
	// single request may ask for. Studies materialize their grid, so
	// their bound is the tighter one.
	MaxStudyPoints int64
	MaxSweepPoints int64
	// DefaultModel names the zoo model a request without an explicit
	// "model" field analyzes ("" means BERT, the model the analyzer
	// passed to New was built for).
	DefaultModel string
}

// DefaultConfig returns production-shaped settings: a cache sized for
// a dashboard's hot set, admission generous enough for interactive use
// but bounded, and timeouts that keep one runaway grid from wedging
// the daemon.
func DefaultConfig() Config {
	return Config{
		CacheEntries:   256,
		CacheBytes:     64 << 20,
		Rate:           50,
		Burst:          100,
		MaxInflight:    32,
		StudyTimeout:   2 * time.Minute,
		SweepTimeout:   10 * time.Minute,
		MaxStudyPoints: 1 << 16,
		MaxSweepPoints: 1 << 24,
		DefaultModel:   "BERT",
	}
}

// Server answers study and sweep queries over one long-lived Analyzer.
// It is an http.Handler factory, not a listener owner — the caller
// (cmd/twocsd) binds the port and owns shutdown.
type Server struct {
	an      *core.Analyzer
	cfg     Config
	col     *telemetry.Collector
	sampler *telemetry.Sampler

	// results is the study result cache: canonical request hash →
	// rendered response body, bounded by CacheEntries and by
	// CacheBytes of body, because bodies vary from hundreds of bytes to
	// megabytes with the requested grid. Identical requests in flight
	// together share one computation.
	results *memo.Memo[string, []byte]
	bucket  *tokenBucket
	gate    inflightGate
	// analyzers holds the zoo models other than the default one,
	// calibrated on first request. The first request for a model pays
	// its baseline profile once; concurrent requests for it wait for
	// that build, and requests for other models do not.
	analyzers *memo.Memo[string, *core.Analyzer]
	// sweepMu serializes streaming sweeps: the progress tracker is
	// process-wide, so one stream at a time is the contract that keeps
	// /progress agreeing with the trailer of the sweep it describes.
	sweepMu sync.Mutex
}

// New builds a Server over an analyzer. col and sampler may be nil
// (telemetry endpoints then serve runtime data only); when col is the
// process's active collector, the analyzer's own spans and counters
// land beside the request metrics.
func New(an *core.Analyzer, cfg Config, col *telemetry.Collector, sampler *telemetry.Sampler) *Server {
	if cfg.DefaultModel == "" {
		cfg.DefaultModel = "BERT"
	}
	return &Server{
		an:      an,
		cfg:     cfg,
		col:     col,
		sampler: sampler,
		results: memo.New[string, []byte]("serve.cache", col, cfg.CacheEntries, cfg.CacheBytes,
			func(body []byte) int64 { return int64(len(body)) }),
		bucket: newTokenBucket(cfg.Rate, cfg.Burst),
		gate:   newInflightGate(cfg.MaxInflight),
		// Names are checked against the zoo first, so a registry the
		// zoo's size never evicts a calibrated model.
		analyzers: memo.New[string, *core.Analyzer]("serve.analyzer", col, len(model.Zoo()), 0, nil),
	}
}

// analyzerFor returns the analyzer for a zoo model: the one passed to
// New for the default model, otherwise a memoized one built and
// calibrated on first use. The name must already be validated
// (normalize checked the zoo), so an error here is a construction
// failure, not a client mistake.
func (s *Server) analyzerFor(ctx context.Context, name string) (*core.Analyzer, error) {
	if name == s.cfg.DefaultModel {
		return s.an, nil
	}
	a, _, err := s.analyzers.Get(ctx, name, func() (*core.Analyzer, error) {
		e, err := model.LookupZoo(name)
		if err != nil {
			return nil, err
		}
		defer s.col.Start("serve.analyzer.build").End()
		a, err := core.NewAnalyzer(s.an.Cluster, e.Config, model.CalibrationTP(e.Config))
		if err != nil {
			return nil, err
		}
		a.Workers = s.an.Workers
		s.col.Count("serve.analyzer.models", 1)
		return a, nil
	})
	return a, err
}

// Handler mounts the full daemon surface on one mux: the API routes
// plus the same debug/metrics plane the CLI's -http flag serves, so a
// single scrape target covers request metrics, analyzer internals,
// runtime stats, and live sweep progress.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/v1/study", s.handleStudy)
	mux.HandleFunc("/v1/sweep", s.handleSweep)
	telemetry.RegisterDebug(mux, s.col, s.sampler)
	return mux
}
