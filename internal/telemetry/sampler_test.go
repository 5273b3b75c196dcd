package telemetry

import (
	"runtime"
	"testing"
	"time"
)

func TestSamplerNilSafe(t *testing.T) {
	var s *Sampler
	s.Start()
	s.Stop()
	if s.Len() != 0 || s.Samples() != nil {
		t.Fatal("nil sampler returned samples")
	}
}

func TestSamplerImmediateAndFinalSample(t *testing.T) {
	s := NewSampler(nil, time.Hour, 8) // interval never fires in-test
	s.Start()
	if s.Len() != 1 {
		t.Fatalf("Start took %d samples, want 1 immediate", s.Len())
	}
	s.Stop()
	if s.Len() != 2 {
		t.Fatalf("after Stop %d samples, want immediate + final", s.Len())
	}
	for _, smp := range s.Samples() {
		if smp.Goroutines <= 0 || smp.HeapAlloc == 0 {
			t.Fatalf("sample missing runtime stats: %+v", smp)
		}
	}
}

func TestSamplerCapturesActiveProgress(t *testing.T) {
	p := NewProgress()
	p.Begin("sweep", 100)
	p.AddRows(42)
	EnableProgress(p)
	defer EnableProgress(nil)

	s := NewSampler(nil, time.Hour, 4)
	s.Start()
	s.Stop()
	smps := s.Samples()
	if len(smps) == 0 {
		t.Fatal("no samples")
	}
	if got := smps[len(smps)-1].Rows; got != 42 {
		t.Fatalf("sampled progress rows = %d, want 42", got)
	}
}

func TestSamplerRingBoundedAndChronological(t *testing.T) {
	s := NewSampler(nil, time.Hour, 4)
	s.Start()
	// Force wrap: 9 extra captures through a 4-slot ring.
	for i := 0; i < 9; i++ {
		time.Sleep(time.Millisecond)
		s.capture()
	}
	if got := s.Len(); got != 4 {
		t.Fatalf("ring holds %d samples, want capacity 4", got)
	}
	smps := s.Samples()
	if len(smps) != 4 {
		t.Fatalf("Samples returned %d, want 4", len(smps))
	}
	for i := 1; i < len(smps); i++ {
		if smps[i].ElapsedS < smps[i-1].ElapsedS {
			t.Fatalf("samples out of order after wrap: %v then %v",
				smps[i-1].ElapsedS, smps[i].ElapsedS)
		}
	}
	s.Stop()
}

func TestSamplerStopTerminatesGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	s := NewSampler(NewCollector(), time.Millisecond, 16)
	s.Start()
	time.Sleep(5 * time.Millisecond) // let the ticker fire a few times
	s.Stop()
	s.Stop() // idempotent

	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("goroutines grew from %d to %d after Stop", before, now)
	}
}

func TestSamplerStopWithoutStart(t *testing.T) {
	s := NewSampler(nil, time.Second, 2)
	s.Stop() // must not block or panic
	if s.Len() != 0 {
		t.Fatalf("never-started sampler has %d samples", s.Len())
	}
	s.Start() // a stopped sampler stays stopped
	if s.Len() != 0 {
		t.Fatal("Start after Stop took a sample")
	}
}
