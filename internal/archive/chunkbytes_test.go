package archive_test

import (
	"runtime"
	"sync"
	"testing"

	"mevscope"
	"mevscope/internal/archive"
	"mevscope/internal/dataset"
	"mevscope/internal/sim"
	"mevscope/internal/types"
)

// sizingCache is a ChunkCache that keeps every chunk it is handed and
// sums the bytes each is accounted at.
type sizingCache struct {
	mu     sync.Mutex
	chunks map[string]any
	bytes  int64
}

func (c *sizingCache) GetChunk(dir string, m types.Month, col string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.chunks[chunkKey(dir, m, col)]
	return v, ok
}

func (c *sizingCache) AddChunk(dir string, m types.Month, col string, v any, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.chunks[chunkKey(dir, m, col)] = v
	c.bytes += bytes
}

// TestChunkBytesCoverHeap pins the chunk cache's byte accounting to the
// heap: the chunks a full-window read of a 1-vantage and a 4-vantage
// archive decodes — every month's block chunks and every observation
// chunk — must be accounted at least at the heap they retain once the
// read's dataset is gone, and at most half again as much.
func TestChunkBytesCoverHeap(t *testing.T) {
	cfg, err := mevscope.Options{Seed: 7, BlocksPerMonth: 50, Vantages: 4}.Config()
	if err != nil {
		t.Fatal(err)
	}
	multi, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := multi.Run(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		world *sim.Sim
	}{{"1 vantage", world(t)}, {"4 vantages", multi}} {
		dir := t.TempDir()
		man, err := archive.Write(dir, dataset.FromSim(tc.world), nil)
		if err != nil {
			t.Fatal(err)
		}
		first, last := man.Window()
		heap := func() int64 {
			var ms runtime.MemStats
			// Two cycles: the second frees what the first left in
			// sync.Pool victim caches.
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&ms)
			return int64(ms.HeapAlloc)
		}
		cache := &sizingCache{chunks: map[string]any{}}
		before := heap()
		if _, _, err := archive.ReadRangeWith(dir, first, last, archive.ReadOptions{Workers: 1, Cache: cache}); err != nil {
			t.Fatal(err)
		}
		retained := heap() - before
		ratio := float64(cache.bytes) / float64(retained)
		t.Logf("%s: %d chunks accounted at %d B, retain %d B (ratio %.3f)", tc.name, len(cache.chunks), cache.bytes, retained, ratio)
		if ratio < 1 || ratio > 1.5 {
			t.Errorf("%s: chunks accounted at %d B but retain %d B of heap (ratio %.2f, want 1..1.5)",
				tc.name, cache.bytes, retained, ratio)
		}
		runtime.KeepAlive(cache)
	}
}
