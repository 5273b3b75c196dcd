package serve

import (
	"net/http"
	"sync"
	"time"

	"twocs/internal/core"
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
	// FlushEvery is the sweep stream's row-granularity for flushing
	// chunked NDJSON to the client (<= 0 takes the sink's default).
	FlushEvery int64
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
		FlushEvery:     256,
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

	cache  *lruCache
	bucket *tokenBucket
	gate   inflightGate
	flight flightGroup
	// anMu guards analyzers, the lazy per-model registry: the analyzer
	// passed to New is seeded under the default model's name, other zoo
	// models are calibrated on first request and memoized. Construction
	// holds the lock — the first request for a new model pays the
	// baseline profile once, concurrent requests for it wait instead of
	// duplicating the work.
	anMu      sync.Mutex
	analyzers map[string]*core.Analyzer
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
		an:        an,
		cfg:       cfg,
		col:       col,
		sampler:   sampler,
		cache:     newLRUCache(cfg.CacheEntries, cfg.CacheBytes),
		bucket:    newTokenBucket(cfg.Rate, cfg.Burst),
		gate:      newInflightGate(cfg.MaxInflight),
		analyzers: map[string]*core.Analyzer{cfg.DefaultModel: an},
	}
}

// analyzerFor returns the memoized analyzer for a zoo model, building
// and calibrating it on first use. The name must already be validated
// (normalize checked the zoo), so an error here is a construction
// failure, not a client mistake.
func (s *Server) analyzerFor(name string) (*core.Analyzer, error) {
	s.anMu.Lock()
	defer s.anMu.Unlock()
	if a, ok := s.analyzers[name]; ok {
		return a, nil
	}
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
	s.analyzers[name] = a
	s.col.Count("serve.analyzer.models", 1)
	return a, nil
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

// CacheLen reports the current study-cache entry count (for tests and
// the load-test scripts).
func (s *Server) CacheLen() int { return s.cache.len() }
