package query

import (
	"container/list"
	"sync"

	"mevscope/internal/core/measure"
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
	// "vantage:N"); each view is its own analysis and cache entry.
	View     string
	Scenario string
	Live     bool
	Height   uint64
	// Projection names the single artifact a column-projected build
	// covers ("" = a full report). A projected report is sparse, so it
	// must never be cached under — or served from — the full-report key.
	Projection string
}

// CacheStats is a point-in-time view of the cache's effectiveness.
type CacheStats struct {
	Size      int   `json:"size"`
	Capacity  int   `json:"capacity"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// reportCache is a concurrency-safe LRU of analyzed reports. Reports are
// immutable once built, so a cached *measure.Report is served to any
// number of concurrent readers without copying.
type reportCache struct {
	mu        sync.Mutex
	cap       int
	ll        *list.List
	items     map[Key]*list.Element
	hits      int64
	misses    int64
	evictions int64
}

// cacheEntry is one LRU element.
type cacheEntry struct {
	key Key
	rep *measure.Report
}

// newReportCache creates an LRU holding up to capacity reports
// (minimum 1).
func newReportCache(capacity int) *reportCache {
	if capacity < 1 {
		capacity = 1
	}
	return &reportCache{cap: capacity, ll: list.New(), items: make(map[Key]*list.Element)}
}

// get returns the cached report and promotes it to most-recently-used.
func (c *reportCache) get(k Key) (*measure.Report, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).rep, true
}

// peek is get without the hit/miss accounting — the in-flight dedup's
// re-check under the server lock, which should not skew the stats a
// client reads off /v1/cache.
func (c *reportCache) peek(k Key) (*measure.Report, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).rep, true
}

// add inserts (or refreshes) a report, evicting the least-recently-used
// entry beyond capacity.
func (c *reportCache) add(k Key, rep *measure.Report) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		el.Value.(*cacheEntry).rep = rep
		c.ll.MoveToFront(el)
		return
	}
	c.items[k] = c.ll.PushFront(&cacheEntry{key: k, rep: rep})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// stats snapshots the counters.
func (c *reportCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Size: c.ll.Len(), Capacity: c.cap,
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
	}
}

// partialKey identifies one analyzed month partial: which archive,
// which single month of it, which observation view the inference
// classified against, which scenario produced it. It is the mid-level
// cache key — finer than a report (one month, not a range), coarser
// than a decoded chunk (analysis output, not storage).
type partialKey struct {
	archive  string
	month    types.Month
	view     string
	scenario string
}

// PartialCacheStats is a point-in-time view of the partial LRU: entry
// count, the byte budget and its current use, and the hit counters.
type PartialCacheStats struct {
	Size          int   `json:"size"`
	CapacityBytes int64 `json:"capacity_bytes"`
	Bytes         int64 `json:"bytes"`
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`
}

// partialCache is the middle cache level, between the report LRU and the
// decoded-chunk LRU: a concurrency-safe, byte-accounted LRU of analyzed
// month partials (measure.Partial). A range request that misses the
// report LRU assembles its report from the partials of its months,
// computing only the months not cached here — so overlapping, sliding
// and adjacent ranges re-pay decoding at most (chunk cache) and analysis
// never, for the months they share. Partials are immutable
// once sealed, so one entry feeds any number of concurrent merges
// without copying. Eviction is by resident bytes (Partial.SizeBytes),
// never below one entry.
type partialCache struct {
	mu        sync.Mutex
	capBytes  int64
	ll        *list.List
	items     map[partialKey]*list.Element
	bytes     int64
	hits      int64
	misses    int64
	evictions int64
}

// partialEntry is one LRU element.
type partialEntry struct {
	key   partialKey
	p     *measure.Partial
	bytes int64
}

// newPartialCache creates a byte-bounded LRU (minimum one entry is
// always retained, whatever its size).
func newPartialCache(capBytes int64) *partialCache {
	if capBytes < 1 {
		capBytes = 1
	}
	return &partialCache{capBytes: capBytes, ll: list.New(), items: make(map[partialKey]*list.Element)}
}

// get returns the cached partial and promotes it to most-recently-used.
func (c *partialCache) get(k partialKey) (*measure.Partial, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*partialEntry).p, true
}

// peek is get without the hit/miss accounting — the in-flight dedup's
// re-check under the server lock.
func (c *partialCache) peek(k partialKey) (*measure.Partial, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*partialEntry).p, true
}

// add inserts (or refreshes) a partial, evicting least-recently-used
// entries until the byte budget holds (keeping at least one entry).
func (c *partialCache) add(k partialKey, p *measure.Partial) {
	size := p.SizeBytes()
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		e := el.Value.(*partialEntry)
		c.bytes += size - e.bytes
		e.p, e.bytes = p, size
		c.ll.MoveToFront(el)
	} else {
		c.items[k] = c.ll.PushFront(&partialEntry{key: k, p: p, bytes: size})
		c.bytes += size
	}
	for c.bytes > c.capBytes && c.ll.Len() > 1 {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		e := oldest.Value.(*partialEntry)
		delete(c.items, e.key)
		c.bytes -= e.bytes
		c.evictions++
	}
}

// stats snapshots the counters.
func (c *partialCache) stats() PartialCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return PartialCacheStats{
		Size: c.ll.Len(), CapacityBytes: c.capBytes, Bytes: c.bytes,
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
	}
}

// chunkKey identifies one decoded column chunk of one archive.
type chunkKey struct {
	archive string
	month   types.Month
	column  string
}

// SegmentCacheStats is a point-in-time view of the chunk LRU: entry
// counters plus the on-disk bytes the cached decodes stand in for.
type SegmentCacheStats struct {
	Size      int   `json:"size"`
	Capacity  int   `json:"capacity"`
	Bytes     int64 `json:"bytes"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// chunkCache is the bottom cache level, under the report and partial
// LRUs: a concurrency-safe LRU of decoded archive column chunks keyed by
// (archive, month, column), so a projected read warms exactly the chunks
// it touched and a later full read (or a different projection) reuses
// them. A report-cache miss re-runs the measurement pipeline, but
// overlapping month ranges of the same archive hit here for the decodes
// they share. Cached values are immutable (hashes cached, column data
// never mutated after decode), so one entry is assembled into any number
// of concurrent datasets without copying. Every entry carries the
// on-disk bytes it stands in for, surfaced in the stats.
//
// It implements archive.ChunkCache.
type chunkCache struct {
	mu        sync.Mutex
	cap       int
	ll        *list.List
	items     map[chunkKey]*list.Element
	bytes     int64
	hits      int64
	misses    int64
	evictions int64
}

// chunkEntry is one LRU element; val is the archive decoder's opaque
// column representation.
type chunkEntry struct {
	key   chunkKey
	val   any
	bytes int64
}

// newChunkCache creates an LRU holding up to capacity decoded chunks
// (minimum 1).
func newChunkCache(capacity int) *chunkCache {
	if capacity < 1 {
		capacity = 1
	}
	return &chunkCache{cap: capacity, ll: list.New(), items: make(map[chunkKey]*list.Element)}
}

// GetChunk returns the cached decode of one column chunk and promotes
// it to most-recently-used (archive.ChunkCache).
func (c *chunkCache) GetChunk(dir string, m types.Month, col string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[chunkKey{dir, m, col}]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*chunkEntry).val, true
}

// AddChunk inserts (or refreshes) a decoded column chunk, evicting the
// least-recently-used entries beyond capacity (archive.ChunkCache).
func (c *chunkCache) AddChunk(dir string, m types.Month, col string, v any, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := chunkKey{dir, m, col}
	if el, ok := c.items[k]; ok {
		e := el.Value.(*chunkEntry)
		c.bytes += bytes - e.bytes
		e.val, e.bytes = v, bytes
		c.ll.MoveToFront(el)
		return
	}
	c.items[k] = c.ll.PushFront(&chunkEntry{key: k, val: v, bytes: bytes})
	c.bytes += bytes
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		e := oldest.Value.(*chunkEntry)
		delete(c.items, e.key)
		c.bytes -= e.bytes
		c.evictions++
	}
}

// stats snapshots the counters.
func (c *chunkCache) stats() SegmentCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return SegmentCacheStats{
		Size: c.ll.Len(), Capacity: c.cap, Bytes: c.bytes,
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
	}
}
