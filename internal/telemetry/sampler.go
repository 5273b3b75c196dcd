package telemetry

import (
	"runtime"
	"sync"
	"time"
)

// The sampler turns the live gauges into a time series: at a fixed
// interval it records the Go runtime's heap, goroutine and GC counts and
// the active Progress's row count into a bounded ring buffer. A
// long-running sweep or twocsd can then answer "what was the heap doing
// two minutes ago" without any external scrape infrastructure, and the
// debug server's /metrics.json endpoint serves the ring as its series.
// The ring keeps only what that series serves; the endpoint reads the
// full metrics, runtime and progress snapshots fresh per request.

// RuntimeStats is one reading of the Go runtime's health counters.
type RuntimeStats struct {
	HeapAllocBytes uint64        `json:"heap_alloc_bytes"`
	HeapSysBytes   uint64        `json:"heap_sys_bytes"`
	Goroutines     int           `json:"goroutines"`
	GCCycles       uint32        `json:"gc_cycles"`
	GCPauseTotal   time.Duration `json:"gc_pause_total_ns"`
}

// ReadRuntimeStats captures the current runtime state. It calls
// runtime.ReadMemStats, which briefly stops the world — cheap at
// sampler cadence, not something for a per-task hot path.
func ReadRuntimeStats() RuntimeStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return RuntimeStats{
		HeapAllocBytes: m.HeapAlloc,
		HeapSysBytes:   m.HeapSys,
		Goroutines:     runtime.NumGoroutine(),
		GCCycles:       m.NumGC,
		GCPauseTotal:   time.Duration(m.PauseTotalNs),
	}
}

// Sample is one sampler capture, one point of /metrics.json's series.
type Sample struct {
	// ElapsedS is the time since the sampler started, in seconds.
	ElapsedS   float64 `json:"elapsed_s"`
	HeapAlloc  uint64  `json:"heap_alloc_bytes"`
	Goroutines int     `json:"goroutines"`
	GCCycles   uint32  `json:"gc_cycles"`
	// Rows is the active Progress's row count (0 when none).
	Rows int64 `json:"rows"`
}

// DefaultSamplerCapacity bounds the ring when NewSampler is given
// capacity <= 0: at the default 1s interval, a ~8.5 minute window.
const DefaultSamplerCapacity = 512

// Sampler periodically captures Samples into a bounded ring buffer.
// Construct with NewSampler, arm with Start, and always Stop it —
// Stop blocks until the sampling goroutine has exited, which is what
// keeps shutdown leak-free. A nil *Sampler is a valid no-op.
type Sampler struct {
	interval time.Duration
	start    time.Time

	mu      sync.Mutex
	ring    []Sample // guarded by mu; fixed capacity once full
	next    int      // guarded by mu; ring write position
	wrapped bool     // guarded by mu; ring has overwritten old samples
	started bool     // guarded by mu
	stopped bool     // guarded by mu

	stop chan struct{}
	done chan struct{}
}

// NewSampler returns a sampler taking one sample every interval and
// keeping the most recent capacity samples (<= 0 selects
// DefaultSamplerCapacity). The collector argument is not read: a sample
// holds runtime state and progress rows only, and the debug server
// reads the collector itself.
func NewSampler(_ *Collector, interval time.Duration, capacity int) *Sampler {
	if interval <= 0 {
		interval = time.Second
	}
	if capacity <= 0 {
		capacity = DefaultSamplerCapacity
	}
	return &Sampler{
		interval: interval,
		ring:     make([]Sample, 0, capacity),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Start launches the sampling goroutine. It takes one sample
// immediately, so even a run shorter than the interval records its
// startup state. Start is idempotent; a stopped sampler stays stopped.
func (s *Sampler) Start() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.started || s.stopped {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.start = time.Now()
	s.mu.Unlock()

	s.capture()
	go func() {
		defer close(s.done)
		t := time.NewTicker(s.interval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.capture()
			}
		}
	}()
}

// Stop halts sampling and waits for the goroutine to exit, taking one
// final sample so the series always ends with the run's closing state.
// Stop is idempotent and safe on a never-started sampler.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	started := s.started
	s.mu.Unlock()
	if !started {
		return
	}
	close(s.stop)
	<-s.done
	s.capture()
}

// capture takes one sample into the ring.
func (s *Sampler) capture() {
	rt := ReadRuntimeStats()
	smp := Sample{
		ElapsedS:   time.Since(s.start).Seconds(),
		HeapAlloc:  rt.HeapAllocBytes,
		Goroutines: rt.Goroutines,
		GCCycles:   rt.GCCycles,
		Rows:       ActiveProgress().Snapshot().Rows,
	}
	s.mu.Lock()
	if len(s.ring) < cap(s.ring) {
		s.ring = append(s.ring, smp)
		s.next = len(s.ring) % cap(s.ring)
	} else {
		s.ring[s.next] = smp
		s.next = (s.next + 1) % cap(s.ring)
		s.wrapped = true
	}
	s.mu.Unlock()
}

// Samples returns a chronological copy of the retained ring: at most
// the configured capacity, oldest first. A nil sampler returns nil.
func (s *Sampler) Samples() []Sample {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Sample, 0, len(s.ring))
	if s.wrapped {
		out = append(out, s.ring[s.next:]...)
		out = append(out, s.ring[:s.next]...)
		return out
	}
	return append(out, s.ring...)
}

// Len returns the number of retained samples.
func (s *Sampler) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ring)
}
