package parallel

import (
	"sync/atomic"
	"testing"
	"time"

	"mevscope/internal/obs"
)

func TestMapOrderAndCoverage(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 16} {
		out := Map(100, workers, func(i int) int { return i * i })
		if len(out) != 100 {
			t.Fatalf("workers=%d: len=%d", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d]=%d", workers, i, v)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	if out := Map(0, 4, func(i int) int { return i }); out != nil {
		t.Errorf("empty map = %v", out)
	}
}

func TestMapRunsEachOnce(t *testing.T) {
	var calls atomic.Int64
	Map(57, 5, func(i int) struct{} {
		calls.Add(1)
		return struct{}{}
	})
	if calls.Load() != 57 {
		t.Errorf("calls = %d, want 57", calls.Load())
	}
}

func TestMapChunksCoverExactly(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{10, 3}, {10, 1}, {3, 10}, {1, 1}, {100, 16}, {7, 7},
	} {
		parts := MapChunksSpan(nil, tc.n, tc.workers, func(lo, hi int) [2]int { return [2]int{lo, hi} })
		prev := 0
		for _, p := range parts {
			if p[0] != prev {
				t.Fatalf("n=%d workers=%d: chunk starts at %d, want %d", tc.n, tc.workers, p[0], prev)
			}
			if p[1] <= p[0] {
				t.Fatalf("n=%d workers=%d: empty chunk %v", tc.n, tc.workers, p)
			}
			prev = p[1]
		}
		if prev != tc.n {
			t.Fatalf("n=%d workers=%d: chunks end at %d", tc.n, tc.workers, prev)
		}
	}
}

func TestWorkersNormalization(t *testing.T) {
	if Workers(3) != 3 {
		t.Error("explicit count should pass through")
	}
	if Workers(0) < 1 || Workers(-5) < 1 {
		t.Error("non-positive should select at least one worker")
	}
}

// TestMapSpanMatchesMap: instrumentation must not perturb results —
// the span variants return exactly what the plain variants do at every
// worker count.
func TestMapSpanMatchesMap(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		tr := obs.New("test")
		sp := tr.Root().Child("stage")
		got := MapSpan(sp, 50, workers, func(i int) int { return i * 3 })
		sp.End()
		for i, v := range got {
			if v != i*3 {
				t.Fatalf("workers=%d: out[%d]=%d", workers, i, v)
			}
		}
		parts := MapChunksSpan(sp, 50, workers, func(lo, hi int) int { return hi - lo })
		sum := 0
		for _, p := range parts {
			sum += p
		}
		if sum != 50 {
			t.Fatalf("workers=%d: chunk coverage = %d", workers, sum)
		}
	}
}

// TestMapSpanRecordsPool: a traced fan-out records the pool size and
// accumulates busy time bounded by wall×workers (modulo clamping).
func TestMapSpanRecordsPool(t *testing.T) {
	tr := obs.New("test")
	sp := tr.Root().Child("stage")
	MapSpan(sp, 64, 4, func(i int) int {
		time.Sleep(100 * time.Microsecond)
		return i
	})
	sp.End()
	if sp.Workers() != 4 {
		t.Errorf("workers = %d; want 4", sp.Workers())
	}
	if sp.Busy() <= 0 {
		t.Error("no busy time recorded")
	}
	if u := sp.Utilization(); u <= 0 || u > 1 {
		t.Errorf("utilization = %v; want (0, 1]", u)
	}
}

// TestDisabledTracerZeroAllocs pins the disabled-tracer contract from
// the flight-recorder work: Map with a nil span must allocate exactly
// what the uninstrumented implementation did — one slice for the
// sequential path (the result) — and enabling the span on that path
// must add nothing either (attrs are plain fields, busy is an atomic).
// MapChunksSpan with a nil span allocates only the chunk bounds and the
// result.
func TestDisabledTracerZeroAllocs(t *testing.T) {
	fn := func(i int) int { return i }
	if got := testing.AllocsPerRun(100, func() { Map(64, 1, fn) }); got != 1 {
		t.Errorf("sequential Map allocates %v per run; want 1 (result slice)", got)
	}
	if got := testing.AllocsPerRun(100, func() { MapSpan(nil, 64, 1, fn) }); got != 1 {
		t.Errorf("sequential MapSpan(nil) allocates %v per run; want 1", got)
	}
	tr := obs.New("test")
	sp := tr.Root().Child("stage")
	if got := testing.AllocsPerRun(100, func() { MapSpan(sp, 64, 1, fn) }); got != 1 {
		t.Errorf("sequential MapSpan(live) allocates %v per run; want 1", got)
	}
	cfn := func(lo, hi int) int { return hi - lo }
	if got := testing.AllocsPerRun(100, func() { MapChunksSpan(nil, 64, 1, cfn) }); got != 2 {
		t.Errorf("MapChunksSpan(nil) allocates %v per run; want 2 (chunk bounds, result slice)", got)
	}
}

// BenchmarkMapDisabledTracer is the allocs-pinning benchmark for the
// nil-span fast path; run with -benchmem and compare allocs/op against
// BenchmarkMapTraced to see the disabled tracer's zero overhead.
func BenchmarkMapDisabledTracer(b *testing.B) {
	fn := func(i int) int { return i * i }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mapSink = MapSpan(nil, 256, 1, fn)
	}
}

// mapSink keeps the benchmarked MapSpan calls from being optimized away.
var mapSink []int

// BenchmarkMapTraced measures the enabled path at one worker: the only
// addition over the disabled path is two clock reads and one atomic add
// per Map call.
func BenchmarkMapTraced(b *testing.B) {
	tr := obs.New("bench")
	sp := tr.Root().Child("stage")
	fn := func(i int) int { return i * i }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mapSink = MapSpan(sp, 256, 1, fn)
	}
}
