package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"twocs/internal/core"
	"twocs/internal/stream"
)

// StudyResponse is the POST /v1/study body: the normalized spec echoed
// back (so the caller sees what defaults filled in), then per-scenario
// comm-fraction points and crossover tables. The rendering is fully
// deterministic — same normalized spec, same bytes — which is what
// makes the result cacheable and the cache testable by byte equality.
type StudyResponse struct {
	Spec      StudyRequest    `json:"spec"`
	Points    int             `json:"points"`
	Scenarios []StudyScenario `json:"scenarios"`
}

// StudyScenario is one hardware-evolution slice of a study response.
type StudyScenario struct {
	Evo       string           `json:"evo"`
	FlopVsBW  float64          `json:"flopbw"`
	Points    []StudyPoint     `json:"points"`
	Crossover []core.Crossover `json:"crossover"`
}

// StudyPoint is one grid sample's serialized-communication fraction.
type StudyPoint struct {
	H        int     `json:"h"`
	SL       int     `json:"sl"`
	B        int     `json:"b"`
	TP       int     `json:"tp"`
	Fraction float64 `json:"comm_frac"`
}

// admit runs the two admission gates; on rejection it has written the
// response. The caller must `defer s.gate.release()` when admitted.
func (s *Server) admit(w http.ResponseWriter) bool {
	if !s.bucket.allow(time.Now()) {
		s.col.Count("serve.admission.rejected", 1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "rate limit exceeded", http.StatusTooManyRequests)
		return false
	}
	if !s.gate.tryAcquire() {
		s.col.Count("serve.admission.saturated", 1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "server at max in-flight requests", http.StatusServiceUnavailable)
		return false
	}
	return true
}

// fail maps a computation error onto an HTTP status: a grid with no
// runnable point → 422 (the spec is at fault, so it counts as a
// rejection, not a server error), deadline → 504, client-side
// cancellation → 503 (the waiter left; nothing better to say),
// anything else → 500.
func (s *Server) fail(w http.ResponseWriter, err error) {
	if errors.Is(err, core.ErrNoRunnablePoints) {
		s.reject(w, http.StatusUnprocessableEntity, err)
		return
	}
	s.col.Count("serve.errors", 1)
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		http.Error(w, "computation deadline exceeded", http.StatusGatewayTimeout)
	case errors.Is(err, context.Canceled):
		http.Error(w, "request canceled", http.StatusServiceUnavailable)
	default:
		http.Error(w, "analysis failed: "+err.Error(), http.StatusInternalServerError)
	}
}

// decodeBody decodes r's body strictly into dst, reading at most
// maxBodyBytes of it; on failure it has written the rejection: 413 for
// a body over the limit, 400 for any other decode error.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	err := decodeStrict(http.MaxBytesReader(w, r.Body, maxBodyBytes), dst)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	s.reject(w, status, err)
	return false
}

func (s *Server) reject(w http.ResponseWriter, status int, err error) {
	s.col.Count("serve.requests.rejected", 1)
	http.Error(w, err.Error(), status)
}

func (s *Server) handleStudy(w http.ResponseWriter, r *http.Request) {
	defer s.col.Start("serve.study").End()
	s.col.Count("serve.study.requests", 1)
	if r.Method != http.MethodPost {
		http.Error(w, "POST a JSON StudyRequest", http.StatusMethodNotAllowed)
		return
	}
	if !s.admit(w) {
		return
	}
	defer s.gate.release()

	var req StudyRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if err := req.normalize(s.cfg.DefaultModel); err != nil {
		s.reject(w, http.StatusBadRequest, err)
		return
	}
	if pts := req.Points(); pts > s.cfg.MaxStudyPoints {
		s.reject(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("study grid has %d points, limit %d (narrow an axis or use /v1/sweep)", pts, s.cfg.MaxStudyPoints))
		return
	}

	// Compute once per key no matter how many identical requests are
	// in flight; only the request that computed reports a miss, every
	// other one gets the same bytes at near-zero marginal cost.
	key := req.cacheKey()
	body, built, err := s.results.Get(r.Context(), key, func() ([]byte, error) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.StudyTimeout)
		defer cancel()
		return s.computeStudy(ctx, req)
	})
	if err != nil {
		s.fail(w, err)
		return
	}
	verdict := "hit"
	if built {
		verdict = "miss"
	}
	s.writeStudy(w, key, verdict, body)
}

func (s *Server) writeStudy(w http.ResponseWriter, key, verdict string, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Twocsd-Cache", verdict)
	w.Header().Set("X-Twocsd-Request", key)
	_, _ = w.Write(body)
}

// computeStudy runs the strict evolution grid under ctx and renders the
// deterministic response body.
func (s *Server) computeStudy(ctx context.Context, req StudyRequest) ([]byte, error) {
	an, err := s.analyzerFor(ctx, req.Model)
	if err != nil {
		return nil, err
	}
	evos := req.Evolutions()
	grid, err := an.SerializedEvolutionGridCtx(ctx, req.Hs, req.SLs, req.TPs, req.B, evos)
	if err != nil {
		return nil, err
	}
	resp := StudyResponse{Spec: req, Scenarios: make([]StudyScenario, len(grid))}
	for i, points := range grid {
		sc := StudyScenario{
			Evo:      evos[i].Name,
			FlopVsBW: evos[i].FlopVsBW(),
			Points:   make([]StudyPoint, len(points)),
		}
		for j, p := range points {
			sc.Points[j] = StudyPoint{H: p.H, SL: p.SL, B: p.B, TP: p.TP, Fraction: p.Fraction}
		}
		if sc.Crossover, err = core.CrossoverTable(points, req.TargetFraction); err != nil {
			return nil, err
		}
		resp.Points += len(points)
		resp.Scenarios[i] = sc
	}
	body, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	defer s.col.Start("serve.sweep").End()
	s.col.Count("serve.sweep.requests", 1)
	if r.Method != http.MethodPost {
		http.Error(w, "POST a JSON SweepRequest", http.StatusMethodNotAllowed)
		return
	}
	if !s.admit(w) {
		return
	}
	defer s.gate.release()

	var req SweepRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if err := req.normalize(s.cfg.DefaultModel); err != nil {
		s.reject(w, http.StatusBadRequest, err)
		return
	}
	if pts := req.Points(); pts > s.cfg.MaxSweepPoints {
		s.reject(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("sweep grid has %d points, limit %d", pts, s.cfg.MaxSweepPoints))
		return
	}
	// Enumerate the grid before any bytes go out: a grid with no
	// runnable point must be a 422, not a 200 that dies mid-stream.
	if _, err := core.GridRowCount(req.Hs, req.SLs, req.TPs, req.B, len(req.FlopVsBW)); err != nil {
		if errors.Is(err, core.ErrNoRunnablePoints) {
			s.fail(w, err)
		} else {
			s.reject(w, http.StatusBadRequest, err)
		}
		return
	}
	an, err := s.analyzerFor(r.Context(), req.Model)
	if err != nil {
		s.fail(w, err)
		return
	}
	// One streaming sweep at a time: the process-wide progress tracker
	// describes exactly one stream, and serializing here is what makes
	// /progress during a sweep agree with that sweep's trailer.
	if !s.sweepMu.TryLock() {
		s.col.Count("serve.sweep.busy", 1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "a sweep is already streaming (follow it on /progress)", http.StatusServiceUnavailable)
		return
	}
	defer s.sweepMu.Unlock()

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.SweepTimeout)
	defer cancel()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Twocsd-Request", req.cacheKey())
	sink := stream.NewNDJSON(w)
	// The partial entry point means cancellation mid-stream (client gone,
	// deadline, SIGTERM draining the server ctx) still yields a
	// well-formed artifact: full grid shape, canceled rows as nulls, a
	// trailer that says what happened. Status is already 200 by the time
	// anything can fail — the trailer is the error channel, which is why
	// the smoke tests machine-check it.
	if err := an.StreamEvolutionGridPartialCtx(ctx, req.Hs, req.SLs, req.TPs, req.B, req.Evolutions(), sink); err != nil {
		s.col.Count("serve.sweep.partial", 1)
	}
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, "twocsd analysis daemon\n\n"+
		"  POST /v1/study  {\"h\":[...],\"sl\":[...],\"tp\":[...],\"b\":1,\"flopbw\":[...],\"model\":\"BERT\",\"target_fraction\":0.5}\n"+
		"                  comm-fraction points + crossover tables as JSON (cached)\n"+
		"  POST /v1/sweep  {\"h\":[...],\"sl\":[...],\"tp\":[...],\"b\":1,\"flopbw\":[...],\"model\":\"BERT\"}\n"+
		"                  grid streamed as NDJSON with a trailer row\n\n"+
		"  /healthz /metrics /metrics.json /progress /debug/pprof/  observability plane\n")
}
