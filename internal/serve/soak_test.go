package serve

import (
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"twocs/internal/core"
	"twocs/internal/hw"
	"twocs/internal/model"
)

// TestStudySoakHeapBounded feeds a daemon with result caching and rate
// limiting off a stream of distinct studies, each over two novel
// (H, SL) shapes, and checks that the post-GC heap stops growing once
// the shape memos behind it are full: between spec 1,000 and spec
// 4,000 it may grow by at most soakHeapCeiling. Unbounded memos keep
// every shape ever asked for, about 5 KB each, and grow by ~30 MB over
// the same stretch.
func TestStudySoakHeapBounded(t *testing.T) {
	const soakHeapCeiling = 4 << 20
	e, err := model.LookupZoo("BERT")
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.NewAnalyzer(hw.MI210Cluster(1, 0), e.Config, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.CacheEntries, cfg.CacheBytes, cfg.Rate = 0, 0, 0
	h := New(a, cfg, nil, nil).Handler()

	rng := rand.New(rand.NewPCG(25, 4000))
	seen := map[string]bool{}
	send := func(n int) {
		for sent := 0; sent < n; {
			// H a multiple of 256 keeps TP=4 runnable (heads = H/64).
			h1, h2 := 256*(4+rng.IntN(4096)), 256*(4+rng.IntN(4096))
			sl := 64 * (16 + rng.IntN(1024))
			spec := fmt.Sprintf(`{"h":[%d,%d],"sl":[%d],"tp":[4],"flopbw":[1]}`, h1, h2, sl)
			if h1 == h2 || seen[spec] {
				continue
			}
			seen[spec] = true
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/study", strings.NewReader(spec)))
			if rec.Code != http.StatusOK {
				t.Fatalf("spec %s: %d %s", spec, rec.Code, rec.Body)
			}
			sent++
		}
	}
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}

	send(1000)
	before := heap()
	send(3000)
	growth := heap() - before
	t.Logf("post-GC heap growth from spec 1,000 to 4,000: %.2f MB", float64(growth)/(1<<20))
	if growth > soakHeapCeiling {
		t.Fatalf("post-GC heap grew %.2f MB from spec 1,000 to 4,000, ceiling %.0f MB",
			float64(growth)/(1<<20), float64(soakHeapCeiling)/(1<<20))
	}
}
