package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"twocs/internal/core"
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

func TestLRUCacheEviction(t *testing.T) {
	c := newLRUCache(2, 0)
	c.put("a", []byte("aa"))
	c.put("b", []byte("bb"))
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing before eviction")
	}
	// a is now most recent; inserting c must evict b.
	c.put("c", []byte("cc"))
	if _, ok := c.get("b"); ok {
		t.Fatal("LRU evicted the wrong entry")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("recently used entry evicted")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d", c.len())
	}
}

func TestLRUCacheByteBound(t *testing.T) {
	c := newLRUCache(0, 10)
	c.put("a", make([]byte, 6))
	c.put("b", make([]byte, 6))
	if _, ok := c.get("a"); ok {
		t.Fatal("byte bound not enforced")
	}
	if _, ok := c.get("b"); !ok {
		t.Fatal("newest entry evicted")
	}
	// An oversized body is admitted (sole entry) but evicted next insert.
	c.put("big", make([]byte, 100))
	if _, ok := c.get("big"); !ok {
		t.Fatal("oversized sole entry rejected")
	}
	c.put("s", make([]byte, 1))
	if _, ok := c.get("big"); ok {
		t.Fatal("oversized entry survived a subsequent insert")
	}
}

func TestLRUCacheRefresh(t *testing.T) {
	c := newLRUCache(4, 0)
	c.put("k", []byte("v1"))
	c.put("k", []byte("v2"))
	if got, _ := c.get("k"); string(got) != "v2" {
		t.Fatalf("refresh kept %q", got)
	}
	if c.len() != 1 {
		t.Fatalf("refresh duplicated the entry: len=%d", c.len())
	}
}

func TestLRUCacheDisabled(t *testing.T) {
	c := newLRUCache(0, 0)
	c.put("k", []byte("v"))
	if _, ok := c.get("k"); ok {
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

// TestFlightGroupSharesOneComputation: N concurrent callers for one key
// run fn once; exactly one is the leader; all see the same bytes.
func TestFlightGroupSharesOneComputation(t *testing.T) {
	var g flightGroup
	var calls int64
	var mu sync.Mutex
	release := make(chan struct{})
	const n = 8
	results := make([][]byte, n)
	leaders := make([]bool, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, leader, err := g.do(context.Background(), "k", func() ([]byte, error) {
				mu.Lock()
				calls++
				mu.Unlock()
				<-release
				return []byte("shared"), nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i], leaders[i] = body, leader
		}(i)
	}
	// Wait until the leader is inside fn, then let everyone pile up.
	for {
		mu.Lock()
		c := calls
		mu.Unlock()
		if c == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	if calls != 1 {
		t.Fatalf("fn ran %d times", calls)
	}
	var nLeaders int
	for i := range results {
		if string(results[i]) != "shared" {
			t.Fatalf("caller %d got %q", i, results[i])
		}
		if leaders[i] {
			nLeaders++
		}
	}
	if nLeaders != 1 {
		t.Fatalf("%d leaders, want exactly 1", nLeaders)
	}
}

// TestFlightGroupFollowerCancel: a follower whose context dies unblocks
// with the context error while the leader keeps computing.
func TestFlightGroupFollowerCancel(t *testing.T) {
	var g flightGroup
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		_, _, _ = g.do(context.Background(), "k", func() ([]byte, error) {
			close(started)
			<-release
			return []byte("late"), nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := g.do(ctx, "k", nil); err != context.Canceled {
		t.Fatalf("follower err = %v, want context.Canceled", err)
	}
	close(release)
}

// TestFlightGroupSequentialReruns: after a flight lands, the next call
// for the same key runs fn again (caching is the lruCache's job).
func TestFlightGroupSequentialReruns(t *testing.T) {
	var g flightGroup
	runs := 0
	for i := 0; i < 3; i++ {
		_, leader, err := g.do(context.Background(), "k", func() ([]byte, error) {
			runs++
			return nil, nil
		})
		if err != nil || !leader {
			t.Fatalf("call %d: leader=%v err=%v", i, leader, err)
		}
	}
	if runs != 3 {
		t.Fatalf("fn ran %d times, want 3", runs)
	}
}
