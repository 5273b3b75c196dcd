package memo

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"twocs/internal/telemetry"
)

// get asks m for key with a build that returns val; it reports whether
// the build ran.
func get(t *testing.T, m *Memo[string, string], key, val string) bool {
	t.Helper()
	got, built, err := m.Get(context.Background(), key, func() (string, error) { return val, nil })
	if err != nil {
		t.Fatalf("Get(%q): %v", key, err)
	}
	if got != val {
		t.Fatalf("Get(%q) = %q, want %q", key, got, val)
	}
	return built
}

func bytesOf(s string) int64 { return int64(len(s)) }

func counter(col *telemetry.Collector, name string) int64 {
	v, _ := col.Snapshot().Counter(name)
	return v
}

func TestMemoEvictsByCount(t *testing.T) {
	col := telemetry.NewCollector()
	m := New[string, string]("t", col, 2, 0, nil)
	get(t, m, "a", "aa")
	get(t, m, "b", "bb")
	if get(t, m, "a", "aa") {
		t.Fatal("a rebuilt before any eviction")
	}
	// a is now the most recent; inserting c must evict b.
	get(t, m, "c", "cc")
	if get(t, m, "a", "aa") {
		t.Fatal("recently used entry evicted")
	}
	if !get(t, m, "b", "bb") {
		t.Fatal("LRU kept the wrong entry")
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
	// Lookups: a b a c a b → 4 misses, 2 hits; evictions: b, then c.
	if h, mi, ev := counter(col, "t.hit"), counter(col, "t.miss"), counter(col, "t.evict"); h != 2 || mi != 4 || ev != 2 {
		t.Fatalf("hit/miss/evict = %d/%d/%d, want 2/4/2", h, mi, ev)
	}
}

func TestMemoEvictsByBytes(t *testing.T) {
	m := New[string, string]("t", nil, 0, 10, bytesOf)
	get(t, m, "a", "aaaaaa")
	get(t, m, "b", "bbbbbb")
	if !get(t, m, "a", "aaaaaa") {
		t.Fatal("byte bound not enforced")
	}
	// The rebuilt a evicted b.
	if !get(t, m, "b", "bbbbbb") {
		t.Fatal("byte bound not enforced on the second insert")
	}
	// An oversized value is kept as the sole entry, then evicted by the
	// next insert.
	big := string(make([]byte, 100))
	get(t, m, "big", big)
	if m.Len() != 1 || get(t, m, "big", big) {
		t.Fatalf("oversized sole entry not kept (Len %d)", m.Len())
	}
	get(t, m, "s", "s")
	if m.Len() != 1 || !get(t, m, "big", big) {
		t.Fatal("oversized entry survived a later insert")
	}
}

func TestMemoHitKeepsOneEntry(t *testing.T) {
	m := New[string, string]("t", nil, 4, 0, nil)
	for i := 0; i < 3; i++ {
		if built := get(t, m, "k", "v"); built != (i == 0) {
			t.Fatalf("call %d: built = %v", i, built)
		}
	}
	if m.Len() != 1 {
		t.Fatalf("repeated key duplicated its entry: Len = %d", m.Len())
	}
}

// TestMemoStoresNothing: with both bounds off the memo keeps no value,
// so each sequential call builds again.
func TestMemoStoresNothing(t *testing.T) {
	for _, bounds := range [][2]int{{0, 0}, {-1, -1}, {0, -5}} {
		m := New[string, string]("t", nil, bounds[0], int64(bounds[1]), bytesOf)
		for i := 0; i < 3; i++ {
			if !get(t, m, "k", "v") {
				t.Fatalf("bounds %v, call %d: served a stored value", bounds, i)
			}
		}
		if m.Len() != 0 {
			t.Fatalf("bounds %v: Len = %d", bounds, m.Len())
		}
	}
}

// waitFor polls until count() reaches n: the test's way of waiting for
// a build to start or for callers to find a pending entry.
func waitFor(t *testing.T, what string, count func() int64, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for count() < n {
		if time.Now().After(deadline) {
			t.Fatalf("%s stuck at %d, want %d", what, count(), n)
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// TestMemoSharesOneBuild: concurrent callers of one key run build once;
// exactly one reports built and all see its value. It holds with the
// memo storing nothing too: pending entries still collapse.
func TestMemoSharesOneBuild(t *testing.T) {
	for _, maxEntries := range []int{4, 0} {
		col := telemetry.NewCollector()
		m := New[string, string]("t", col, maxEntries, 0, nil)
		var builds atomic.Int64
		release := make(chan struct{})
		const n = 8
		vals := make([]string, n)
		builtBy := make([]bool, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				v, built, err := m.Get(context.Background(), "k", func() (string, error) {
					builds.Add(1)
					<-release
					return "shared", nil
				})
				if err != nil {
					t.Error(err)
				}
				vals[i], builtBy[i] = v, built
			}(i)
		}
		// Release the build only once every other caller waits on it.
		waitFor(t, "waiting callers", func() int64 { return counter(col, "t.hit") }, n-1)
		close(release)
		wg.Wait()
		if builds.Load() != 1 {
			t.Fatalf("maxEntries %d: build ran %d times", maxEntries, builds.Load())
		}
		nBuilt := 0
		for i := range vals {
			if vals[i] != "shared" {
				t.Fatalf("caller %d got %q", i, vals[i])
			}
			if builtBy[i] {
				nBuilt++
			}
		}
		if nBuilt != 1 {
			t.Fatalf("maxEntries %d: %d callers built, want exactly 1", maxEntries, nBuilt)
		}
	}
}

// TestMemoWaiterCancel: a waiter whose context ends leaves with the
// context's error while the build carries on and lands for later calls.
func TestMemoWaiterCancel(t *testing.T) {
	m := New[string, string]("t", nil, 4, 0, nil)
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, _ = m.Get(context.Background(), "k", func() (string, error) {
			close(started)
			<-release
			return "late", nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, built, err := m.Get(ctx, "k", nil); err != context.Canceled || built {
		t.Fatalf("waiter: built=%v err=%v, want context.Canceled", built, err)
	}
	close(release)
	<-done
	if get(t, m, "k", "late") {
		t.Fatal("the build the waiter left was not kept")
	}
}

// result is one Get's outcome.
type result[V any] struct {
	v     V
	built bool
	err   error
}

// leaderWithFollower asks m for key as a leader whose build fails with
// cause once a follower, whose own context stays live, waits on it, as
// when the leader's request is canceled or runs out of time. It returns
// the leader's error and the follower's result; a follower that builds
// gets val. hits reads m's hit counter.
func leaderWithFollower[K comparable, V any](t *testing.T, m *Memo[K, V], hits func() int64, key K, val V, cause error) (error, result[V]) {
	t.Helper()
	follower := make(chan result[V], 1)
	_, _, leaderErr := m.Get(context.Background(), key, func() (V, error) {
		n := hits()
		go func() {
			v, built, err := m.Get(context.Background(), key, func() (V, error) { return val, nil })
			follower <- result[V]{v, built, err}
		}()
		waitFor(t, "waiting callers", hits, n+1)
		var zero V
		return zero, cause
	})
	return leaderErr, <-follower
}

// TestMemoWaiterRetriesCanceledBuild: a build canceled by its own
// caller's context is built again by a waiter whose context is live;
// a build that ran out of time is not.
func TestMemoWaiterRetriesCanceledBuild(t *testing.T) {
	for _, tc := range []struct {
		cause error
		retry bool
	}{
		{context.Canceled, true},
		{fmt.Errorf("study: %w", context.Canceled), true},
		{context.DeadlineExceeded, false},
	} {
		col := telemetry.NewCollector()
		m := New[string, string]("t", col, 4, 0, nil)
		leaderErr, f := leaderWithFollower(t, m, func() int64 { return counter(col, "t.hit") }, "k", "v", tc.cause)
		if leaderErr != tc.cause {
			t.Fatalf("%v: leader err = %v", tc.cause, leaderErr)
		}
		want, misses, held := result[string]{"v", true, nil}, int64(2), 1
		if !tc.retry {
			want, misses, held = result[string]{"", false, tc.cause}, 1, 0
		}
		if f != want {
			t.Fatalf("%v: follower got %+v, want %+v", tc.cause, f, want)
		}
		if mi := counter(col, "t.miss"); mi != misses || m.Len() != held {
			t.Fatalf("%v: misses %d, Len %d; want %d, %d", tc.cause, mi, m.Len(), misses, held)
		}
	}
}

// TestMemoFailedBuildIsDropped: a failed build reaches its waiters and
// is not stored, so the next call builds again.
func TestMemoFailedBuildIsDropped(t *testing.T) {
	m := New[string, string]("t", nil, 4, 0, nil)
	boom := errors.New("boom")
	if _, built, err := m.Get(context.Background(), "k", func() (string, error) { return "", boom }); err != boom || !built {
		t.Fatalf("failed build: built=%v err=%v", built, err)
	}
	if m.Len() != 0 {
		t.Fatalf("failed build stored: Len = %d", m.Len())
	}
	if !get(t, m, "k", "v") {
		t.Fatal("key not rebuilt after a failed build")
	}
}

// TestMemoPanicReleasesWaiters: a panicking build re-panics in its own
// goroutine, releases its waiters with ErrPanicked, and leaves the key
// free to build again — no caller hangs on it.
func TestMemoPanicReleasesWaiters(t *testing.T) {
	col := telemetry.NewCollector()
	m := New[string, string]("t", col, 4, 0, nil)
	release := make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		_, _, _ = m.Get(context.Background(), "k", func() (string, error) {
			<-release
			panic("build failed")
		})
	}()
	waitFor(t, "builds", func() int64 { return counter(col, "t.miss") }, 1)
	waited := make(chan error, 1)
	go func() {
		_, _, err := m.Get(context.Background(), "k", nil)
		waited <- err
	}()
	waitFor(t, "waiting callers", func() int64 { return counter(col, "t.hit") }, 1)
	close(release)
	if p := <-panicked; p != "build failed" {
		t.Fatalf("builder recovered %v, want the build's panic", p)
	}
	select {
	case err := <-waited:
		if !errors.Is(err, ErrPanicked) {
			t.Fatalf("waiter err = %v, want ErrPanicked", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter still blocked after the build panicked")
	}
	if m.Len() != 0 {
		t.Fatalf("panicked build stored: Len = %d", m.Len())
	}
	if !get(t, m, "k", "v") {
		t.Fatal("key not rebuilt after a panicked build")
	}
}

// TestMemoSlowBuildDoesNotBlockOtherKeys: a hit, or another key's build,
// proceeds while one key's build is still running.
func TestMemoSlowBuildDoesNotBlockOtherKeys(t *testing.T) {
	col := telemetry.NewCollector()
	m := New[string, string]("t", col, 4, 0, nil)
	get(t, m, "warm", "w")
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, _ = m.Get(context.Background(), "slow", func() (string, error) {
			<-release
			return "s", nil
		})
	}()
	waitFor(t, "builds", func() int64 { return counter(col, "t.miss") }, 2)
	fast := make(chan error, 1)
	go func() {
		_, _, err := m.Get(context.Background(), "warm", nil)
		if err == nil {
			_, _, err = m.Get(context.Background(), "other", func() (string, error) { return "o", nil })
		}
		fast <- err
	}()
	select {
	case err := <-fast:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a hit on another key waited for a running build")
	}
	close(release)
	<-done
}

// refMemo is the oracle FuzzMemoOracle checks Memo against: a set of
// held keys plus a recency-ordered key slice, most recent first.
type refMemo struct {
	maxEntries int
	maxBytes   int64
	order      []int
	held       map[int]bool
	evicted    int64
}

func (r *refMemo) over() bool {
	var b int64
	for _, k := range r.order {
		b += oracleSize(k)
	}
	return (r.maxEntries > 0 && len(r.order) > r.maxEntries) || (r.maxBytes > 0 && b > r.maxBytes)
}

// get applies one lookup of k and reports whether it builds.
func (r *refMemo) get(k int, fail bool) (built bool) {
	if r.held[k] {
		for i, o := range r.order {
			if o == k {
				r.order = append(r.order[:i], r.order[i+1:]...)
				break
			}
		}
		r.order = append([]int{k}, r.order...)
		return false
	}
	if fail || (r.maxEntries <= 0 && r.maxBytes <= 0) {
		return true
	}
	r.order = append([]int{k}, r.order...)
	r.held[k] = true
	for len(r.order) > 1 && r.over() {
		victim := r.order[len(r.order)-1]
		r.order = r.order[:len(r.order)-1]
		delete(r.held, victim)
		r.evicted++
	}
	return true
}

// oracleSize is the size of key k's value, 0..4: a pure function of
// the key, as the memo's values are.
func oracleSize(k int) int64 { return int64(k * 7 % 5) }

// FuzzMemoOracle drives a memo with tiny bounds through a random
// sequence of successful and failing lookups over eight keys, some of
// them a build that its leader's cancel or deadline ends while a
// follower waits, and checks every verdict, value, length and counter
// against refMemo.
func FuzzMemoOracle(f *testing.F) {
	f.Add([]byte{3, 12, 1, 2, 3, 1, 4, 5, 1})
	f.Add([]byte{0, 0, 1, 1, 2, 2})
	f.Add([]byte{1, 3, 0x81, 7, 7, 0x87, 7})
	f.Add([]byte{0, 6, 2, 3, 4, 2, 0x83, 3, 5, 6, 7})
	f.Add([]byte{2, 7, 0x41, 0x61, 1, 0x62, 0x42, 0xC3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 258 {
			return
		}
		// Bounds: -1..3 entries and -1..6 bytes.
		ref := &refMemo{
			maxEntries: int(data[0]%5) - 1,
			maxBytes:   int64(data[1]%8) - 1,
			held:       map[int]bool{},
		}
		col := telemetry.NewCollector()
		m := New[int, int]("f", col, ref.maxEntries, ref.maxBytes, func(v int) int64 { return oracleSize(v) })
		boom := errors.New("boom")
		var hits, misses int64
		for i, b := range data[2:] {
			k, fail := int(b&7), b&0x80 != 0
			if b&0x40 != 0 && !ref.held[k] {
				// The build fails with the leader's context error while
				// a follower waits: a cancel is built again by the
				// follower, a deadline is not.
				cause := context.Canceled
				if b&0x20 != 0 {
					cause = context.DeadlineExceeded
				}
				ref.get(k, true)
				misses++
				hits++
				want := result[int]{0, false, cause}
				if cause == context.Canceled {
					ref.get(k, false)
					misses++
					want = result[int]{k, true, nil}
				}
				leaderErr, got := leaderWithFollower(t, m, func() int64 { return counter(col, "f.hit") }, k, k, cause)
				if leaderErr != cause || got != want {
					t.Fatalf("op %d (key %d, %v): leader err %v, follower %+v; want %+v", i, k, cause, leaderErr, got, want)
				}
				if m.Len() != len(ref.order) {
					t.Fatalf("op %d: Len = %d, want %d (%v)", i, m.Len(), len(ref.order), ref.order)
				}
				continue
			}
			want := ref.get(k, fail)
			if want {
				misses++
			} else {
				hits++
			}
			v, built, err := m.Get(context.Background(), k, func() (int, error) {
				if fail {
					return 0, boom
				}
				return k, nil
			})
			switch {
			case built != want:
				t.Fatalf("op %d (key %d fail %v): built = %v, want %v", i, k, fail, built, want)
			case fail && built:
				if err != boom {
					t.Fatalf("op %d: failing build returned %v", i, err)
				}
			case err != nil || v != k:
				t.Fatalf("op %d: Get(%d) = %d, %v", i, k, v, err)
			}
			if m.Len() != len(ref.order) {
				t.Fatalf("op %d: Len = %d, want %d (%v)", i, m.Len(), len(ref.order), ref.order)
			}
		}
		if h, mi, ev := counter(col, "f.hit"), counter(col, "f.miss"), counter(col, "f.evict"); h != hits || mi != misses || ev != ref.evicted {
			t.Fatalf("hit/miss/evict = %d/%d/%d, want %d/%d/%d", h, mi, ev, hits, misses, ref.evicted)
		}
	})
}
