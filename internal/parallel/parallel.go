// Package parallel is the worker-pool plumbing behind the measurement
// pipeline: it fans independent units of work (blocks, profit records,
// inference classifications, whole simulations) across a bounded set of
// goroutines and hands results back in input order, so parallel runs are
// byte-identical to sequential ones.
//
// The Span variants accept an obs.Span and record the pool's size and
// per-worker busy time on it, so traces can report pool utilization as
// busy/(wall×workers). A nil span selects the exact uninstrumented
// code path — zero extra allocations, no clock reads.
package parallel

import (
	"runtime"
	"sync"
	"time"

	"mevscope/internal/obs"
)

// Workers normalizes a requested worker count: values below 1 select
// runtime.NumCPU(), everything else passes through.
func Workers(n int) int {
	if n < 1 {
		return runtime.NumCPU()
	}
	return n
}

// Map computes fn(i) for every i in [0, n) across the given number of
// workers and returns the results indexed by i. Results are written into
// pre-assigned slots, so the output is identical to a sequential loop
// regardless of scheduling. fn must be safe to call concurrently.
func Map[T any](n, workers int, fn func(i int) T) []T {
	return MapSpan(nil, n, workers, fn)
}

// MapSpan is Map with pool instrumentation: the span (when non-nil)
// records the worker count and accumulates each worker's busy time —
// the time spent inside fn, excluding hand-off waits. Scheduling and
// output are identical to Map; tracing never perturbs results.
func MapSpan[T any](sp *obs.Span, n, workers int, fn func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	workers = Workers(workers)
	if workers == 1 || n == 1 {
		if sp == nil {
			for i := 0; i < n; i++ {
				out[i] = fn(i)
			}
			return out
		}
		sp.SetWorkers(1)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
		sp.AddBusy(time.Since(t0))
		return out
	}
	if workers > n {
		workers = n
	}
	sp.SetWorkers(workers)
	var wg sync.WaitGroup
	next := make(chan int)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			if sp == nil {
				for i := range next {
					out[i] = fn(i)
				}
				return
			}
			var busy time.Duration
			for i := range next {
				t0 := time.Now()
				out[i] = fn(i)
				busy += time.Since(t0)
			}
			sp.AddBusy(busy)
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// MapChunksSpan splits [0, n) into contiguous chunks of roughly equal
// size — one per worker — and calls fn(lo, hi) for each, returning the
// per-chunk results in ascending chunk order. Chunked fan-out amortizes
// scheduling overhead when per-item work is small (e.g. per-block
// detector sweeps); merging the returned slice in order reproduces the
// sequential result. The span, when non-nil, records the pool as
// MapSpan's does.
func MapChunksSpan[T any](sp *obs.Span, n, workers int, fn func(lo, hi int) T) []T {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	bounds := chunkBounds(n, workers)
	if workers == 1 {
		if sp == nil {
			return []T{fn(0, n)}
		}
		sp.SetWorkers(1)
		t0 := time.Now()
		out := []T{fn(0, n)}
		sp.AddBusy(time.Since(t0))
		return out
	}
	sp.SetWorkers(len(bounds))
	out := make([]T, len(bounds))
	var wg sync.WaitGroup
	wg.Add(len(bounds))
	for c, b := range bounds {
		go func(c int, lo, hi int) {
			defer wg.Done()
			if sp == nil {
				out[c] = fn(lo, hi)
				return
			}
			t0 := time.Now()
			out[c] = fn(lo, hi)
			sp.AddBusy(time.Since(t0))
		}(c, b[0], b[1])
	}
	wg.Wait()
	return out
}

// chunkBounds returns the [lo, hi) bounds of k near-equal chunks of [0, n).
func chunkBounds(n, k int) [][2]int {
	out := make([][2]int, 0, k)
	base, rem := n/k, n%k
	lo := 0
	for c := 0; c < k; c++ {
		size := base
		if c < rem {
			size++
		}
		if size == 0 {
			continue
		}
		out = append(out, [2]int{lo, lo + size})
		lo += size
	}
	return out
}
