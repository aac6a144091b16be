package serve

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
	"unsafe"
)

// entryOverhead approximates the per-entry bookkeeping cost charged against
// the byte budget on top of the key and the value payload: the list
// element, the map bucket share, and the entry struct itself.
const entryOverhead = 128

// memo is the serving layer's keyed table of results: solved values keyed
// by a canonical request hash (core.CacheKey for metrics, plan.CacheKey for
// capacity plans), each key either finished — held in an LRU — or in
// flight, computed once by the caller that registered it while later
// callers for the same key wait for that call and share its result. One
// mutex guards both states, so finding a key, joining its call and
// registering a new call are one critical section, and a successful call
// stores its value and leaves the in-flight map in another.
//
// The LRU is doubly bounded: by entry count and by an approximate byte
// budget; storing past either bound evicts from the least-recently-used
// end. Identical keys always carry bit-identical values (the solver and the
// planner are deterministic), so storing never compares or overwrites
// payloads — re-adding an existing key just refreshes its recency.
type memo[V any] struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	bytes      int64
	ll         *list.List // finished entries, most recently used first
	items      map[string]*list.Element
	calls      map[string]*memoCall[V]

	// sizeOf estimates the payload bytes of one value for the byte budget;
	// nil charges the shallow struct size (right for flat values like
	// core.Metrics, an undercount for pointer-rich ones).
	sizeOf func(V) int64

	// waiters counts callers currently parked on another caller's call.
	// Tests read it to sequence deterministic coalescing scenarios; nothing
	// in the serving path depends on it.
	waiters atomic.Int64
}

// memoEntry is one finished key → value binding plus its charged size.
type memoEntry[V any] struct {
	key  string
	v    V
	size int64
}

// memoCall is one call in flight; done closes when val/err are final.
type memoCall[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// memoSource says where Do found its answer.
type memoSource int

const (
	memoComputed memoSource = iota // this caller ran fn (or its deadline had passed)
	memoStored                     // a finished entry answered
	memoShared                     // another caller's call in flight answered
)

// newMemo returns a table whose LRU is bounded to maxEntries entries and
// maxBytes approximate bytes, charging sizeOf(v) per value (nil means the
// shallow struct size). maxEntries <= 0 disables storing (Get always
// misses, Add discards) but Do still shares calls in flight; maxBytes <= 0
// means no byte bound.
func newMemo[V any](maxEntries int, maxBytes int64, sizeOf func(V) int64) *memo[V] {
	return &memo[V]{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		items:      make(map[string]*list.Element),
		calls:      make(map[string]*memoCall[V]),
		sizeOf:     sizeOf,
	}
}

// Get returns the finished value for key and refreshes its recency.
func (m *memo[V]) Get(key string) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lookup(key)
}

// Add stores key → v. Adding a present key only refreshes its recency.
func (m *memo[V]) Add(key string, v V) {
	m.mu.Lock()
	m.store(key, v)
	m.mu.Unlock()
}

// Do returns the value for key: a finished entry if there is one, else the
// result of the call in flight for key, else the result of fn, which this
// caller then runs and, on success, stores. Concurrent callers with the
// same key run fn at most once. A caller whose ctx has ended when it finds
// no finished entry gets the deadline error without joining or starting a
// call; one whose ctx ends while it waits returns ctx.Err(). The caller
// that runs fn always runs it to completion, so its result can still be
// stored for later requests.
func (m *memo[V]) Do(ctx context.Context, key string, fn func() (V, error)) (V, memoSource, error) {
	var zero V
	m.mu.Lock()
	if v, ok := m.lookup(key); ok {
		m.mu.Unlock()
		return v, memoStored, nil
	}
	if err := ctx.Err(); err != nil {
		m.mu.Unlock()
		return zero, memoComputed, deadlineErr(err)
	}
	if c, ok := m.calls[key]; ok {
		m.mu.Unlock()
		m.waiters.Add(1)
		defer m.waiters.Add(-1)
		select {
		case <-c.done:
			return c.val, memoShared, c.err
		case <-ctx.Done():
			return zero, memoShared, ctx.Err()
		}
	}
	c := &memoCall[V]{done: make(chan struct{})}
	m.calls[key] = c
	m.mu.Unlock()

	c.val, c.err = fn()

	m.mu.Lock()
	delete(m.calls, key)
	if c.err == nil {
		m.store(key, c.val)
	}
	m.mu.Unlock()
	close(c.done)
	return c.val, memoComputed, c.err
}

// lookup returns the finished value for key and refreshes its recency;
// callers hold m.mu.
func (m *memo[V]) lookup(key string) (V, bool) {
	el, ok := m.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	m.ll.MoveToFront(el)
	return el.Value.(*memoEntry[V]).v, true
}

// store inserts key → v, evicting least-recently-used entries until both
// bounds hold again; callers hold m.mu.
func (m *memo[V]) store(key string, v V) {
	if m.maxEntries <= 0 {
		return
	}
	if el, ok := m.items[key]; ok {
		m.ll.MoveToFront(el)
		return
	}
	e := &memoEntry[V]{key: key, v: v, size: m.entrySize(key, v)}
	m.items[key] = m.ll.PushFront(e)
	m.bytes += e.size
	for m.ll.Len() > m.maxEntries || (m.maxBytes > 0 && m.bytes > m.maxBytes && m.ll.Len() > 1) {
		el := m.ll.Back()
		old := el.Value.(*memoEntry[V])
		m.ll.Remove(el)
		delete(m.items, old.key)
		m.bytes -= old.size
	}
}

// entrySize charges the key bytes, the value payload, and the fixed
// overhead against the byte budget.
func (m *memo[V]) entrySize(key string, v V) int64 {
	n := int64(len(key)) + entryOverhead
	if m.sizeOf != nil {
		return n + m.sizeOf(v)
	}
	return n + int64(unsafe.Sizeof(v))
}
