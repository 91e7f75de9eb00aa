package archive

import (
	"path/filepath"
	"runtime"
	"testing"

	"mevscope/internal/types"
)

// The chunk-decode allocation pin. A restore calls readChunk once per
// (segment, column) file, and a block lookup does so for every block
// chunk of its month — the per-chunk scratch (two 64 KiB bufio buffers
// and a gzip inflater) used to be freshly allocated on every call. These tests pin the pooled steady state so the scratch cannot
// quietly start re-allocating per chunk again.

// writeTestChunk persists one synthetic chunk with busy dictionaries and
// a varint-heavy body — the shape a real headers or transactions column
// has.
func writeTestChunk(tb testing.TB) (root string, fi FileInfo) {
	tb.Helper()
	root = tb.TempDir()
	w := newColWriter()
	const rows = 512
	for i := 0; i < rows; i++ {
		var a types.Address
		a[0], a[1] = byte(i), byte(i>>8)
		w.addr(a)
		var h types.Hash
		h[0], h[1] = byte(i), byte(i>>8)
		w.hash(h)
		w.uvarint(uint64(i) * 7)
		w.svarint(int64(i) - rows/2)
	}
	fi, err := writeChunk(root, filepath.Join(root, "seg-test"), ColHeaders, rows, w)
	if err != nil {
		tb.Fatal(err)
	}
	return root, fi
}

// decodeTestChunk runs one full readChunk, drains the rows and releases
// the body as every column decoder does, so the measured region covers
// everything a decoder pays per chunk.
func decodeTestChunk(tb testing.TB, root string, fi FileInfo) {
	const rows = 512
	r, err := readChunk(root, fi, ColHeaders)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		r.addr()
		r.hash()
		r.uvarint()
		r.svarint()
	}
	if err := r.done(); err != nil {
		tb.Fatal(err)
	}
	r.release()
}

// TestChunkDecodeAllocs pins the steady-state allocation cost of one
// chunk decode. The count barely moves when the scratch pools are
// removed (a handful of extra allocations), but the bytes do: a fresh
// gzip inflater plus two fresh 64 KiB bufio readers cost over 160 KiB
// of garbage per chunk on top of the retained output — so the pin is on
// allocated bytes, with the count as a looser secondary guard.
func TestChunkDecodeAllocs(t *testing.T) {
	root, fi := writeTestChunk(t)
	decodeTestChunk(t, root, fi) // warm the scratch pools
	const runs = 200
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		decodeTestChunk(t, root, fi)
	}
	runtime.ReadMemStats(&after)
	bytesPer := float64(after.TotalAlloc-before.TotalAlloc) / runs
	allocsPer := float64(after.Mallocs-before.Mallocs) / runs
	t.Logf("per chunk decode: %.0f bytes, %.1f allocs", bytesPer, allocsPer)
	if bytesPer > 100<<10 {
		t.Errorf("chunk decode allocates %.0f bytes, want ≤ %d (is the decode scratch still pooled?)",
			bytesPer, 100<<10)
	}
	if allocsPer > 100 {
		t.Errorf("chunk decode costs %.1f allocs, want ≤ 100", allocsPer)
	}
}

// BenchmarkArchiveChunkDecode is the single-chunk decode number behind
// the pin above, in CI's BENCH_archive artifact next to the full-restore
// benchmarks.
func BenchmarkArchiveChunkDecode(b *testing.B) {
	root, fi := writeTestChunk(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decodeTestChunk(b, root, fi)
	}
}
