package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"twocs/internal/core"
	"twocs/internal/memo"
	"twocs/internal/telemetry"
)

func TestGridSpecNormalizeDefaults(t *testing.T) {
	var g GridSpec
	if err := g.normalize("BERT"); err != nil {
		t.Fatal(err)
	}
	if len(g.Hs) != len(core.Table3Hs()) || len(g.SLs) != len(core.Table3SLs()) ||
		len(g.TPs) != len(core.Table3TPs()) {
		t.Fatalf("defaults are not Table 3: %+v", g)
	}
	if g.B != 1 || len(g.FlopVsBW) != 3 {
		t.Fatalf("defaults: B=%d flopbw=%v", g.B, g.FlopVsBW)
	}
}

func TestGridSpecNormalizeCanonicalizes(t *testing.T) {
	g := GridSpec{Hs: []int{2048, 1024, 2048}, SLs: []int{4096}, TPs: []int{16, 4},
		FlopVsBW: []float64{4, 1, 4}}
	if err := g.normalize("BERT"); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(g.Hs) != "[1024 2048]" || fmt.Sprint(g.TPs) != "[4 16]" ||
		fmt.Sprint(g.FlopVsBW) != "[1 4]" {
		t.Fatalf("not canonical: %+v", g)
	}
	if g.Points() != 2*1*2*2 {
		t.Fatalf("Points() = %d", g.Points())
	}
}

func TestGridSpecNormalizeRejects(t *testing.T) {
	bad := []GridSpec{
		{Hs: []int{0}},
		{SLs: []int{-4}},
		{TPs: []int{maxAxisValue + 1}},
		{B: -1},
		{FlopVsBW: []float64{0.5}},
		{FlopVsBW: []float64{2e6}},
	}
	for i, g := range bad {
		if err := g.normalize("BERT"); err == nil {
			t.Errorf("spec %d normalized without error: %+v", i, g)
		}
	}
}

func TestStudyRequestTargetFraction(t *testing.T) {
	var r StudyRequest
	if err := r.normalize("BERT"); err != nil {
		t.Fatal(err)
	}
	if r.TargetFraction < 0.49 || r.TargetFraction > 0.51 {
		t.Fatalf("default target = %v, want 0.5", r.TargetFraction)
	}
	for _, bad := range []float64{-0.1, 1, 1.5} {
		r := StudyRequest{TargetFraction: bad}
		if err := r.normalize("BERT"); err == nil {
			t.Errorf("target %v accepted", bad)
		}
	}
}

// TestCacheKeyCanonical: permuted, duplicated, and explicitly-defaulted
// requests hash identically; different analyses hash differently.
func TestCacheKeyCanonical(t *testing.T) {
	a := StudyRequest{GridSpec: GridSpec{Hs: []int{1024, 2048}, SLs: []int{1024},
		TPs: []int{4, 8}}, TargetFraction: 0.5}
	b := StudyRequest{GridSpec: GridSpec{Hs: []int{2048, 1024, 2048}, SLs: []int{1024},
		TPs: []int{8, 4}, B: 1, FlopVsBW: []float64{1, 2, 4}}}
	for _, r := range []*StudyRequest{&a, &b} {
		if err := r.normalize("BERT"); err != nil {
			t.Fatal(err)
		}
	}
	if a.cacheKey() != b.cacheKey() {
		t.Fatalf("equivalent requests hash differently:\n%s\n%s", a.cacheKey(), b.cacheKey())
	}
	c := a
	c.TargetFraction = 0.3
	if c.cacheKey() == a.cacheKey() {
		t.Fatal("different targets share a hash")
	}
	sweep := SweepRequest{GridSpec: a.GridSpec}
	if sweep.cacheKey() == a.cacheKey() {
		t.Fatal("study and sweep share a hash")
	}
}

func TestDecodeStrict(t *testing.T) {
	var r StudyRequest
	if err := decodeStrict(strings.NewReader(`{"h":[1024],"target_fraction":0.4}`), &r); err != nil {
		t.Fatal(err)
	}
	if err := decodeStrict(strings.NewReader(`{"hss":[1024]}`), &r); err == nil {
		t.Fatal("unknown field accepted")
	}
	if err := decodeStrict(strings.NewReader(`{"h":[1024]} trailing`), &r); err == nil {
		t.Fatal("trailing data accepted")
	}
}

// FuzzRequestSpec drives the spec path every request takes before it
// runs (strict decode, normalize, canonical hash) with arbitrary bodies,
// as both a study and a sweep. It must never panic, and normalization
// must be idempotent: normalizing an accepted spec again changes
// neither the spec nor its cache key.
func FuzzRequestSpec(f *testing.F) {
	table3, err := json.Marshal(GridSpec{Hs: core.Table3Hs(), SLs: core.Table3SLs(),
		TPs: core.Table3TPs(), B: 1, FlopVsBW: []float64{1, 2, 4}, Model: "BERT"})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		string(table3),
		`{}`,
		`{"h":[4096,1024,4096,1024],"sl":[2048,1024,2048],"tp":[8,4,8],"flopbw":[4,1,4,2]}`,
		`{"h":[0]}`, `{"sl":[-4]}`, `{"tp":[16777217]}`, `{"b":-1}`,
		`{"flopbw":[0.5]}`, `{"flopbw":[2e6]}`, `{"target_fraction":1.5}`,
		`{"model":"BERT-XXL"}`,
		`{"h":[1024],"lo":0,"hi":1}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkSpecPath[StudyRequest](t, body)
		checkSpecPath[SweepRequest](t, body)
	})
}

// checkSpecPath decodes body as an R, and when the daemon would accept
// it, checks that a second normalize leaves the spec and key unchanged.
func checkSpecPath[R any, P interface {
	*R
	normalize(defModel string) error
	cacheKey() string
}](t *testing.T, body []byte) {
	defModel := DefaultConfig().DefaultModel
	req := P(new(R))
	if decodeStrict(bytes.NewReader(body), req) != nil || req.normalize(defModel) != nil {
		return
	}
	spec, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("normalized spec does not marshal: %v", err)
	}
	key := req.cacheKey()
	if err := req.normalize(defModel); err != nil {
		t.Fatalf("second normalize of %s failed: %v", spec, err)
	}
	again, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(spec, again) || req.cacheKey() != key {
		t.Fatalf("normalize is not idempotent:\n%s (%s)\n%s (%s)", spec, key, again, req.cacheKey())
	}
}

// resultCache returns the study result cache a server builds from the
// given CacheEntries and CacheBytes.
func resultCache(entries int, bytes int64) *memo.Memo[string, []byte] {
	return New(nil, Config{CacheEntries: entries, CacheBytes: bytes}, nil, nil).results
}

// study asks the result cache for key with a computation rendering body
// and reports whether the computation ran.
func study(t *testing.T, c *memo.Memo[string, []byte], key, body string) bool {
	t.Helper()
	got, built, err := c.Get(context.Background(), key, func() ([]byte, error) { return []byte(body), nil })
	if err != nil || string(got) != body {
		t.Fatalf("study %q = %q, %v", key, got, err)
	}
	return built
}

func TestLRUCacheEviction(t *testing.T) {
	c := resultCache(2, 0)
	study(t, c, "a", "aa")
	study(t, c, "b", "bb")
	if study(t, c, "a", "aa") {
		t.Fatal("a missing before eviction")
	}
	// a is now most recent; inserting c must evict b.
	study(t, c, "c", "cc")
	if study(t, c, "a", "aa") {
		t.Fatal("recently used entry evicted")
	}
	if !study(t, c, "b", "bb") || c.Len() != 2 {
		t.Fatalf("LRU evicted the wrong entry (len %d)", c.Len())
	}
}

// TestLRUCacheByteBound: CacheBytes bounds the summed body bytes, and an
// oversized body is kept alone until the next insert.
func TestLRUCacheByteBound(t *testing.T) {
	c := resultCache(0, 10)
	study(t, c, "a", "aaaaaa")
	study(t, c, "b", "bbbbbb")
	if c.Len() != 1 || study(t, c, "b", "bbbbbb") {
		t.Fatalf("byte bound not enforced (len %d)", c.Len())
	}
	big := strings.Repeat("x", 100)
	study(t, c, "big", big)
	if c.Len() != 1 || study(t, c, "big", big) {
		t.Fatal("oversized sole entry rejected")
	}
	study(t, c, "s", "s")
	if !study(t, c, "big", big) {
		t.Fatal("oversized entry survived a subsequent insert")
	}
}

// TestLRUCacheRefresh: asking for a cached key again neither recomputes
// nor duplicates it.
func TestLRUCacheRefresh(t *testing.T) {
	c := resultCache(4, 0)
	study(t, c, "k", "v")
	if study(t, c, "k", "v") || c.Len() != 1 {
		t.Fatalf("repeat request recomputed or duplicated the entry: len=%d", c.Len())
	}
}

func TestLRUCacheDisabled(t *testing.T) {
	c := resultCache(0, 0)
	study(t, c, "k", "v")
	if c.Len() != 0 || !study(t, c, "k", "v") {
		t.Fatal("disabled cache stored an entry")
	}
}

func TestTokenBucket(t *testing.T) {
	t0 := time.Unix(1000, 0)
	b := newTokenBucket(1, 2) // 1 token/s, burst 2
	if !b.allow(t0) || !b.allow(t0) {
		t.Fatal("burst capacity not honored")
	}
	if b.allow(t0) {
		t.Fatal("empty bucket allowed a request")
	}
	if !b.allow(t0.Add(1500 * time.Millisecond)) {
		t.Fatal("refill did not restore a token")
	}
	if b.allow(t0.Add(1600 * time.Millisecond)) {
		t.Fatal("partial refill allowed a second request")
	}
	// Refill never exceeds burst.
	late := t0.Add(time.Hour)
	if !b.allow(late) || !b.allow(late) {
		t.Fatal("burst not restored after idle")
	}
	if b.allow(late) {
		t.Fatal("idle refill exceeded burst")
	}
}

func TestTokenBucketDisabled(t *testing.T) {
	b := newTokenBucket(0, 1)
	now := time.Unix(0, 0)
	for i := 0; i < 100; i++ {
		if !b.allow(now) {
			t.Fatal("disabled bucket rejected a request")
		}
	}
}

func TestInflightGate(t *testing.T) {
	g := newInflightGate(2)
	if !g.tryAcquire() || !g.tryAcquire() {
		t.Fatal("gate rejected within capacity")
	}
	if g.tryAcquire() {
		t.Fatal("gate admitted over capacity")
	}
	g.release()
	if !g.tryAcquire() {
		t.Fatal("released slot not reusable")
	}
}

// TestFlightGroupSharesOneComputation: with caching off, N concurrent
// identical studies still run one computation; exactly one caller
// computed and all see the same bytes.
func TestFlightGroupSharesOneComputation(t *testing.T) {
	col := telemetry.NewCollector()
	c := New(nil, Config{}, col, nil).results
	var calls atomic.Int64
	release := make(chan struct{})
	const n = 8
	results := make([][]byte, n)
	computed := make([]bool, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, built, err := c.Get(context.Background(), "k", func() ([]byte, error) {
				calls.Add(1)
				<-release
				return []byte("shared"), nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i], computed[i] = body, built
		}(i)
	}
	// Release the computation once every other caller waits on it.
	for counter(t, col, "serve.cache.hit") < n-1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	var nComputed int
	for i := range results {
		if string(results[i]) != "shared" {
			t.Fatalf("caller %d got %q", i, results[i])
		}
		if computed[i] {
			nComputed++
		}
	}
	if calls.Load() != 1 || nComputed != 1 {
		t.Fatalf("computation ran %d times, %d callers computed; want 1 and 1", calls.Load(), nComputed)
	}
}

// TestFlightGroupFollowerCancel: a request waiting on an identical one
// leaves with its context's error while the computation continues.
func TestFlightGroupFollowerCancel(t *testing.T) {
	c := resultCache(0, 0)
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		_, _, _ = c.Get(context.Background(), "k", func() ([]byte, error) {
			close(started)
			<-release
			return []byte("late"), nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.Get(ctx, "k", nil); err != context.Canceled {
		t.Fatalf("follower err = %v, want context.Canceled", err)
	}
	close(release)
}

// TestFlightGroupSequentialReruns: with caching off, a study asked again
// after the first one landed computes again.
func TestFlightGroupSequentialReruns(t *testing.T) {
	c := resultCache(0, 0)
	for i := 0; i < 3; i++ {
		if !study(t, c, "k", "v") {
			t.Fatalf("call %d served a stored body", i)
		}
	}
}
