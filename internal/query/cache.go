package query

import (
	"container/list"
	"fmt"
	"sync"

	"mevscope/internal/types"
)

// Key identifies one analyzed report in the cache: which archive, which
// month slice of it, which observation view it classified against,
// which scenario produced it — or, for live follower snapshots (Live
// true, Archive empty), the height the snapshot covers, so a repeated
// live query at the same height is a hit and any new block is a natural
// invalidation.
type Key struct {
	Archive  string
	From, To types.Month
	// View is the observation view ("", "union", "quorum:K",
	// "vantage:N"); each view is its own report entry, merged from the
	// same month partials as every other view.
	View     string
	Scenario string
	Live     bool
	Height   uint64
}

// partialKey identifies one analyzed month partial: which archive,
// which single month of it, which scenario produced it. It has no view:
// a partial keeps the month's capture of every vantage, and each merge
// classifies it under its own key's view. It is finer than a report key:
// one month, not a range.
type partialKey struct {
	archive  string
	month    types.Month
	scenario string
}

// monthKey identifies one archived month's sealed blocks, the unit
// /v1/block lookups cache.
type monthKey struct {
	archive string
	month   types.Month
}

// CacheStats is a point-in-time view of the report level's counters.
type CacheStats struct {
	Size      int   `json:"size"`
	Capacity  int   `json:"capacity"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// PartialCacheStats is a point-in-time view of the partial level: entry
// count, the byte budget and its current use, and the hit counters.
type PartialCacheStats struct {
	Size          int   `json:"size"`
	CapacityBytes int64 `json:"capacity_bytes"`
	Bytes         int64 `json:"bytes"`
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`
}

// SegmentCacheStats is a point-in-time view of the month level behind
// /v1/block: entry counters, in months, plus the heap the cached months'
// blocks retain (archive.RetainedBytes). The level is bounded by entry
// count, not by these bytes.
type SegmentCacheStats struct {
	Size      int   `json:"size"`
	Capacity  int   `json:"capacity"`
	Bytes     int64 `json:"bytes"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// level is one cache level of the server — reports, month partials and
// the months /v1/block looks blocks up in are each one instance. It is
// a concurrency-safe LRU bounded by entry count (maxEntries > 0) and/or
// by accounted bytes (maxBytes > 0, each entry sized by size); it never
// evicts its last entry, whatever its size. Cached values are immutable once published,
// so one entry is handed to any number of concurrent readers without
// copying. A nil level caches nothing: peek misses and do just builds.
//
// do collapses concurrent misses for one key into one build: the first
// caller builds, the rest wait for its result. The lookup, the in-flight
// check and the registration happen under one lock, and a finished build
// is published to the LRU in the same critical section that retires its
// in-flight entry, so a caller always finds one or the other. A
// panicking build becomes an error for the builder and every waiter,
// and nothing is cached for it, so the next request rebuilds.
type level[K comparable, V any] struct {
	noun       string        // what an entry is, for panic errors
	maxEntries int           // 0: no entry bound
	maxBytes   int64         // 0: no byte bound
	size       func(V) int64 // accounted bytes of one value; nil: none

	mu        sync.Mutex
	ll        *list.List
	items     map[K]*list.Element
	inflight  map[K]*flight[V]
	bytes     int64
	hits      int64
	misses    int64
	evictions int64
}

// entry is one LRU element.
type entry[K comparable, V any] struct {
	key   K
	val   V
	bytes int64
}

// flight is one in-progress build that concurrent misses wait on.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

func newLevel[K comparable, V any](noun string, maxEntries int, maxBytes int64, size func(V) int64) *level[K, V] {
	return &level[K, V]{
		noun: noun, maxEntries: maxEntries, maxBytes: maxBytes, size: size,
		ll: list.New(), items: make(map[K]*list.Element), inflight: make(map[K]*flight[V]),
	}
}

// lookup returns k's cached value and promotes it to most-recently-used,
// counting a hit or a miss when count is set. l.mu must be held.
func (l *level[K, V]) lookup(k K, count bool) (V, bool) {
	el, ok := l.items[k]
	switch {
	case ok && count:
		l.hits++
	case count:
		l.misses++
	}
	if !ok {
		var zero V
		return zero, false
	}
	l.ll.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// peek is a lookup that leaves the hit and miss counters alone.
func (l *level[K, V]) peek(k K) (V, bool) {
	if l == nil {
		var zero V
		return zero, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lookup(k, false)
}

// sizeOf is v's accounted bytes, computed before taking l.mu.
func (l *level[K, V]) sizeOf(v V) int64 {
	if l.size == nil {
		return 0
	}
	return l.size(v)
}

// add inserts (or refreshes) a value, then evicts least-recently-used
// entries until the level is within its bounds.
func (l *level[K, V]) add(k K, v V) {
	size := l.sizeOf(v)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.addLocked(k, v, size)
}

func (l *level[K, V]) addLocked(k K, v V, size int64) {
	if el, ok := l.items[k]; ok {
		e := el.Value.(*entry[K, V])
		l.bytes += size - e.bytes
		e.val, e.bytes = v, size
		l.ll.MoveToFront(el)
	} else {
		l.items[k] = l.ll.PushFront(&entry[K, V]{key: k, val: v, bytes: size})
		l.bytes += size
	}
	for l.ll.Len() > 1 && (l.maxEntries > 0 && l.ll.Len() > l.maxEntries || l.maxBytes > 0 && l.bytes > l.maxBytes) {
		e := l.ll.Remove(l.ll.Back()).(*entry[K, V])
		delete(l.items, e.key)
		l.bytes -= e.bytes
		l.evictions++
	}
}

// do resolves k through the level, counting one lookup: the cached
// value, else the result of the build already in flight for k, else the
// result of build, which is published on success.
func (l *level[K, V]) do(k K, build func() (V, error)) (v V, err error) {
	if l == nil {
		return build()
	}
	l.mu.Lock()
	if cached, ok := l.lookup(k, true); ok {
		l.mu.Unlock()
		return cached, nil
	}
	if f, ok := l.inflight[k]; ok {
		l.mu.Unlock()
		<-f.done
		return f.val, f.err
	}
	f := &flight[V]{done: make(chan struct{})}
	l.inflight[k] = f
	l.mu.Unlock()

	// Publish and retire in a defer, so a panicking build still releases
	// its waiters: otherwise every later request for k would block
	// forever.
	var size int64
	defer func() {
		if r := recover(); r != nil {
			var zero V
			f.val, f.err = zero, fmt.Errorf("query: building %s: panic: %v", l.noun, r)
		}
		l.mu.Lock()
		if f.err == nil {
			l.addLocked(k, f.val, size)
		}
		delete(l.inflight, k)
		l.mu.Unlock()
		close(f.done)
		v, err = f.val, f.err
	}()
	if f.val, f.err = build(); f.err == nil {
		size = l.sizeOf(f.val)
	}
	return f.val, f.err
}

// levelStats is a point-in-time copy of a level's counters and bounds;
// the exported *Stats types are its per-level views.
type levelStats struct {
	size                    int
	maxEntries              int
	maxBytes, bytes         int64
	hits, misses, evictions int64
}

func (l *level[K, V]) stats() levelStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return levelStats{
		size: l.ll.Len(), maxEntries: l.maxEntries, maxBytes: l.maxBytes, bytes: l.bytes,
		hits: l.hits, misses: l.misses, evictions: l.evictions,
	}
}

func (st levelStats) reports() CacheStats {
	return CacheStats{Size: st.size, Capacity: st.maxEntries, Hits: st.hits, Misses: st.misses, Evictions: st.evictions}
}

func (st levelStats) partials() PartialCacheStats {
	return PartialCacheStats{Size: st.size, CapacityBytes: st.maxBytes, Bytes: st.bytes,
		Hits: st.hits, Misses: st.misses, Evictions: st.evictions}
}

func (st levelStats) segments() SegmentCacheStats {
	return SegmentCacheStats{Size: st.size, Capacity: st.maxEntries, Bytes: st.bytes,
		Hits: st.hits, Misses: st.misses, Evictions: st.evictions}
}
