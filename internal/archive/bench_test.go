package archive_test

import (
	"os"
	"runtime"
	"sync"
	"testing"

	"mevscope"
	"mevscope/internal/archive"
	"mevscope/internal/dataset"
	"mevscope/internal/sim"
)

// The archive benchmarks behind CI's BENCH_archive.json artifact:
// encode and decode throughput plus on-disk size, and single-block
// lookups. The acceptance bar is an absolute on-disk budget for the
// bpm-50 world (pinned by TestArchiveV3CompressionRatio below); the cold
// `mevscope serve` query benchmark (internal/query) rides in the same
// artifact so restore cost regressions show up where users feel them.

var (
	benchOnce sync.Once
	benchDS   *dataset.Dataset
	benchSim  *sim.Sim
	benchErr  error
)

// benchDataset simulates one shared small full-window world (the bpm-50
// world the CI load harness also uses).
func benchDataset(tb testing.TB) *dataset.Dataset {
	tb.Helper()
	benchOnce.Do(func() {
		cfg, err := mevscope.Options{Seed: 7, BlocksPerMonth: 50}.Config()
		if err != nil {
			benchErr = err
			return
		}
		benchSim, benchErr = sim.New(cfg)
		if benchErr != nil {
			return
		}
		if benchErr = benchSim.Run(); benchErr == nil {
			benchDS = dataset.FromSim(benchSim)
		}
	})
	if benchErr != nil {
		tb.Fatal(benchErr)
	}
	return benchDS
}

// BenchmarkArchiveEncodeV3 measures the write path, reporting the
// on-disk footprint alongside the timing.
func BenchmarkArchiveEncodeV3(b *testing.B) {
	ds := benchDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	var man *archive.Manifest
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir, err := os.MkdirTemp("", "mevscope-bench-*")
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		man, err = archive.Write(dir, ds, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		os.RemoveAll(dir)
		b.StartTimer()
	}
	b.ReportMetric(float64(man.DataBytes()), "disk-bytes")
	b.ReportMetric(float64(ds.Chain.Len()), "blocks/op")
}

// BenchmarkArchiveDecodeV3 measures the full restore path.
func BenchmarkArchiveDecodeV3(b *testing.B) {
	ds := benchDataset(b)
	dir := b.TempDir()
	man, err := archive.Write(dir, ds, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := archive.Read(dir); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(man.DataBytes()), "disk-bytes")
	b.ReportMetric(float64(ds.Chain.Len()), "blocks/op")
}

// BenchmarkArchiveReadBlockV3 measures an uncached single-block lookup:
// each op restores the block's month through ReadBlocks, the month
// reader's assembly.
func BenchmarkArchiveReadBlockV3(b *testing.B) {
	ds := benchDataset(b)
	dir := b.TempDir()
	man, err := archive.Write(dir, ds, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		si := man.Segments[i%len(man.Segments)]
		if _, err := archive.ReadBlocks(dir, si); err != nil {
			b.Fatal(err)
		}
	}
}

var (
	rotateOnce sync.Once
	rotateDS   *dataset.Dataset
	rotateSeg  *dataset.Segment
	rotateErr  error
)

// BenchmarkArchiveRotate measures one live rotation: each op writes the
// last month of the seed-1 bpm-100 world, live-follow's, through
// StreamWriter.WriteSegment into a fresh directory. The month's chunks
// encode on one pool, so the op gains from a second core (-cpu 1,2).
func BenchmarkArchiveRotate(b *testing.B) {
	rotateOnce.Do(func() {
		cfg, err := mevscope.Options{Seed: 1, BlocksPerMonth: 100}.Config()
		if err != nil {
			rotateErr = err
			return
		}
		s, err := sim.New(cfg)
		if err != nil {
			rotateErr = err
			return
		}
		if rotateErr = s.Run(); rotateErr == nil {
			rotateDS = dataset.FromSim(s)
			segs := dataset.Partition(rotateDS)
			rotateSeg = segs[len(segs)-1]
		}
	})
	if rotateErr != nil {
		b.Fatal(rotateErr)
	}
	ds, seg := rotateDS, rotateSeg
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir, err := os.MkdirTemp("", "mevscope-bench-*")
		if err != nil {
			b.Fatal(err)
		}
		sw, err := archive.NewStreamWriter(dir, ds.Chain.Timeline, ds.WETH, archive.DefaultFormat, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := sw.WriteSegment(seg); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		os.RemoveAll(dir)
		b.StartTimer()
	}
	b.ReportMetric(float64(len(seg.Blocks)), "blocks/op")
}

// v3DiskBudget is the on-disk budget of the Seed 7 bpm-50 world: the
// last measured size of that world's v2 archive (6,817,547 data bytes)
// divided by 3, the "at least 3× smaller than v2" bar the v3 encoding
// was accepted on.
const v3DiskBudget = 2_272_515

// TestArchiveV3CompressionRatio pins the encoding's acceptance bar on
// the bpm-50 world: the archive fits v3DiskBudget.
func TestArchiveV3CompressionRatio(t *testing.T) {
	ds := benchDataset(t)
	dirV3 := t.TempDir()
	manV3, err := archive.Write(dirV3, ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("disk bytes: %d (budget %d)", manV3.DataBytes(), v3DiskBudget)
	if got := manV3.DataBytes(); got > v3DiskBudget {
		t.Errorf("archive is %d bytes, over the %d-byte budget", got, v3DiskBudget)
	}
}

// writeAllocBudget bounds what archive.Write of the bpm-50 world may
// allocate. A fresh 64 KiB bufio writer and a fresh gzip writer (about
// 0.9 MB of deflate state) per chunk took the write to 157 MB. Pooled,
// it takes about 35 MB, and about 70 MB under the race detector, where
// sync.Pool drops some Puts. The write encodes every chunk of every
// month on one worker pool at chunkLevel, so about one writer pair per
// worker is in use at a time.
const writeAllocBudget = 90_000_000

// TestArchiveWriteAllocs pins the pooled chunk compressors: one archive
// write of the bpm-50 world stays within writeAllocBudget.
func TestArchiveWriteAllocs(t *testing.T) {
	ds := benchDataset(t)
	dir := t.TempDir()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := archive.Write(dir, ds, nil); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("archive.Write allocated %.1f MB", float64(got)/1e6)
	if got > writeAllocBudget {
		t.Errorf("archive.Write allocated %d bytes, want ≤ %d (are the chunk writers still pooled?)", got, writeAllocBudget)
	}
}
