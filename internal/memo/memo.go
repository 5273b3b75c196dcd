// Package memo is the one memo type behind every cache in the module:
// a keyed, bounded, least-recently-used map whose values are built once
// per key. The operator graphs (model), layer projections (opmodel),
// compiled iteration programs (dist), timer substrates (core), the
// daemon's study results and its per-model analyzers (serve) all go
// through it.
//
// The values it holds are pure functions of their keys, so a bound
// changes what a lookup costs, never what it returns: an evicted entry
// is simply built again the next time its key is asked for.
package memo

import (
	"context"
	"errors"
	"sync"

	"twocs/internal/telemetry"
)

// ErrPanicked is the error waiters receive when the build they waited
// for panicked. The panic itself propagates in the building goroutine.
var ErrPanicked = errors.New("memo: build panicked")

// Memo maps keys to values built on first use. The entry for a new key
// is stored before its build runs, so concurrent callers of that key
// wait for the one build instead of each running their own. A failed or
// panicking build is dropped, so the next call builds again.
//
// Finished entries are bounded by count and, optionally, by the sum of
// a size function over their values; the least recently used finished
// entry is evicted first. Entries whose build is still running are
// never evicted. A single value larger than the byte bound is kept
// until the next insert evicts it, so one oversized value never wedges
// the memo. With both bounds non-positive the memo keeps nothing: it
// only collapses concurrent builds of one key.
//
// Every lookup counts <name>.hit when it finds its key, finished or
// pending, and <name>.miss when it builds; evictions count <name>.evict.
// A Memo is safe for concurrent use and must not be copied.
type Memo[K comparable, V any] struct {
	hit, miss, evict string
	col              *telemetry.Collector
	maxEntries       int
	maxBytes         int64
	size             func(V) int64

	mu    sync.Mutex
	items map[K]*entry[K, V] // guarded by mu
	// ring is the sentinel of the recency ring of finished entries:
	// ring.next is the most recently used, ring.prev the next victim.
	ring  entry[K, V] // guarded by mu
	n     int         // guarded by mu; finished entries on the ring
	bytes int64       // guarded by mu; summed size of those entries
}

type entry[K comparable, V any] struct {
	key  K
	val  V
	err  error
	size int64
	// done, made under the memo's lock by the first caller that waits
	// on the build, is closed once val and err are final; an entry
	// nobody waits on never allocates one.
	done chan struct{}
	// prev and next link the entry into the recency ring; both are
	// nil while the build runs and after the entry leaves the memo.
	prev, next *entry[K, V]
}

// New returns an empty memo keeping at most maxEntries finished entries
// and, when size is non-nil, at most maxBytes of their summed sizes. A
// non-positive bound is no bound; both non-positive keep nothing.
// Counters go to col, or to the process's active collector (read at
// each count) when col is nil.
func New[K comparable, V any](name string, col *telemetry.Collector, maxEntries int, maxBytes int64, size func(V) int64) *Memo[K, V] {
	if size == nil {
		maxBytes = 0
	}
	m := &Memo[K, V]{
		hit: name + ".hit", miss: name + ".miss", evict: name + ".evict",
		col:        col,
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		size:       size,
		items:      make(map[K]*entry[K, V]),
	}
	m.ring.prev, m.ring.next = &m.ring, &m.ring
	return m
}

// Get returns the value for key, calling build to make it when the memo
// has none; built reports whether this caller ran build. A caller that
// finds the key's build still running waits for it, and leaves with
// ctx.Err() if ctx ends first; the build carries on for the others.
// A build that fails with context.Canceled was canceled by its own
// caller, not for the waiters: a waiter whose ctx is still live retries
// once, and so builds the value itself unless another waiter got there
// first. A deadline is not retried, since the same build would only
// run out of time again. build runs in the calling goroutine and must
// not call Get on the same memo with the same key.
func (m *Memo[K, V]) Get(ctx context.Context, key K, build func() (V, error)) (v V, built bool, err error) {
	for retry := true; ; retry = false {
		m.mu.Lock()
		e, ok := m.items[key]
		if !ok {
			break
		}
		if e.next != nil {
			m.unlinkLocked(e)
			m.pushLocked(e)
			m.mu.Unlock()
			m.collector().Count(m.hit, 1)
			return e.val, false, nil
		}
		if e.done == nil {
			e.done = make(chan struct{})
		}
		done := e.done
		m.mu.Unlock()
		m.collector().Count(m.hit, 1)
		select {
		case <-done:
			if e.err != nil && retry && errors.Is(e.err, context.Canceled) && ctx.Err() == nil {
				continue
			}
			return e.val, false, e.err
		case <-ctx.Done():
			return v, false, ctx.Err()
		}
	}
	// Until build returns, the entry reads as panicked: if build
	// panics, the deferred finish drops the entry and releases the
	// waiters with ErrPanicked while the panic goes on unwinding.
	e := &entry[K, V]{key: key, err: ErrPanicked}
	m.items[key] = e
	m.mu.Unlock()
	m.collector().Count(m.miss, 1)
	defer m.finish(e)
	e.val, e.err = build()
	return e.val, true, e.err
}

// Do is Get for callers with no context of their own.
//
//lint:ctxfacade the shape memos' callers hold no context; a waiter waits only for the one build of its key, a bounded pure function of the key
func (m *Memo[K, V]) Do(key K, build func() (V, error)) (V, error) {
	v, _, err := m.Get(context.Background(), key, build)
	return v, err
}

// Len returns the number of finished entries the memo holds.
func (m *Memo[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.n
}

// finish publishes a build's result: it keeps a successful value as the
// most recently used entry and evicts from the cold end until the
// bounds hold, or drops a failed build's entry. Then it releases the
// build's waiters.
func (m *Memo[K, V]) finish(e *entry[K, V]) {
	if e.err == nil && m.size != nil {
		e.size = m.size(e.val)
	}
	var evicted int64
	m.mu.Lock()
	if e.err != nil || (m.maxEntries <= 0 && m.maxBytes <= 0) {
		delete(m.items, e.key)
	} else {
		m.pushLocked(e)
		for m.n > 1 && m.overLocked() {
			old := m.ring.prev
			m.unlinkLocked(old)
			delete(m.items, old.key)
			evicted++
		}
	}
	done := e.done
	e.done = nil
	m.mu.Unlock()
	if done != nil {
		close(done)
	}
	if evicted > 0 {
		m.collector().Count(m.evict, evicted)
	}
}

// overLocked reports whether a bound is exceeded.
func (m *Memo[K, V]) overLocked() bool {
	return (m.maxEntries > 0 && m.n > m.maxEntries) || (m.maxBytes > 0 && m.bytes > m.maxBytes)
}

// pushLocked links e in as the most recently used finished entry.
func (m *Memo[K, V]) pushLocked(e *entry[K, V]) {
	e.prev, e.next = &m.ring, m.ring.next
	e.prev.next, e.next.prev = e, e
	m.n++
	m.bytes += e.size
}

// unlinkLocked takes e out of the recency ring.
func (m *Memo[K, V]) unlinkLocked(e *entry[K, V]) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
	m.n--
	m.bytes -= e.size
}

func (m *Memo[K, V]) collector() *telemetry.Collector {
	if m.col != nil {
		return m.col
	}
	return telemetry.Active()
}
