package query_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"mevscope"
	"mevscope/internal/query"
	"mevscope/internal/types"
)

// The serve benchmarks behind CI's BENCH_serve.json artifact: cold
// (restore + analyze per request) vs cached (LRU hit per request)
// latency and allocations for a full-report query, plus a parallel
// client benchmark over the cached path. The acceptance bar is cached ≥
// 10× faster than cold for the repeated full-report request.

// benchGet drives one request through the handler, failing on non-200.
func benchGet(b *testing.B, srv *query.Server, url string) {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	if rec.Code != http.StatusOK {
		b.Fatalf("%s → %d: %s", url, rec.Code, rec.Body.String())
	}
}

// benchColdReport measures the cold query path over one archive: every
// request misses every cache level (fresh server), so it pays the shared
// restore, every month's read and analysis, and the merge.
func benchColdReport(b *testing.B, dir string) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		srv, err := query.New(query.Config{Archive: dir, AnalyzePartial: mevscope.AnalyzeDatasetPartial, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		benchGet(b, srv, "/v1/report?format=text")
	}
}

// BenchmarkServeColdReportV3 is the cold query benchmark: the full
// report over the shared 1-vantage world's archive, as a new `mevscope
// archive` writes it, assembled from month partials at one worker.
func BenchmarkServeColdReportV3(b *testing.B) {
	benchColdReport(b, testArchive(b))
}

// BenchmarkServeColdReportMultiVantage is the cold path `mevscope serve`
// runs: a fresh server with all three analysis hooks and the default
// worker pool builds the full-window report of a 4-vantage archive from
// month partials — the shared archive state restored once per
// build, the missing months fanned across the pool. The benchmark above
// times the same assembly at one worker on a 1-vantage world.
func BenchmarkServeColdReportMultiVantage(b *testing.B) {
	dir := multiVantageArchive(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		srv := newServeLikeServer(b, dir, 0)
		b.StartTimer()
		benchGet(b, srv, "/v1/report?format=text")
	}
}

// overlappingRangeURLs is the sliding-window query mix: 6-month report
// windows stepping one month at a time across the whole archive. Every
// URL is a distinct report key, so the report LRU never helps — the
// workload is decided by how often each month is re-analyzed.
func overlappingRangeURLs() []string {
	const win = 6
	var urls []string
	for m := types.Month(0); m+win <= types.StudyMonths; m++ {
		urls = append(urls, fmt.Sprintf("/v1/report?format=text&months=%s..%s", m.Label(), (m+win-1).Label()))
	}
	return urls
}

// benchColdOverlapping drives the sliding-window mix through a fresh
// server per iteration. Each iteration first issues one full-range
// warming request under a stopped timer — steady-state serving has
// every month's partial cached from prior traffic, and the warming
// request models exactly that (it analyzes every month once, the
// analyze-each-month-once half of the memoization). The timed region
// is the 18 sliding windows, every one a report key the server has
// never seen, each assembled from cached month partials.
func benchColdOverlapping(b *testing.B) {
	dir := testArchive(b)
	urls := overlappingRangeURLs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		srv, err := query.New(query.Config{Archive: dir, AnalyzePartial: mevscope.AnalyzeDatasetPartial, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		benchGet(b, srv, "/v1/report?format=text")
		b.StartTimer()
		for _, u := range urls {
			benchGet(b, srv, u)
		}
	}
}

// BenchmarkServeColdOverlappingRanges is the month-partial memoization
// headline number: the sliding-window mix over a cold server.
func BenchmarkServeColdOverlappingRanges(b *testing.B) { benchColdOverlapping(b) }

// BenchmarkServePartialAssemblyWarm measures pure assembly: every month
// partial of a 12-month window is cached, and the report LRU is sized
// to one entry while two windows alternate — so each request misses
// the report cache and rebuilds the report from warm partials. This is
// the steady-state cost of a never-seen range over a hot month set.
func BenchmarkServePartialAssemblyWarm(b *testing.B) {
	dir := testArchive(b)
	srv, err := query.New(query.Config{
		Archive: dir, AnalyzePartial: mevscope.AnalyzeDatasetPartial,
		Workers: 1, CacheSize: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	windows := []string{
		fmt.Sprintf("/v1/report?format=text&months=%s..%s", types.Month(0).Label(), types.Month(11).Label()),
		fmt.Sprintf("/v1/report?format=text&months=%s..%s", types.Month(1).Label(), types.Month(12).Label()),
	}
	for _, u := range windows {
		benchGet(b, srv, u) // warm the partial cache for months 0..12
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGet(b, srv, windows[i%2])
	}
	b.StopTimer()
	if st := srv.PartialCacheStats(); st.Misses != 13 {
		b.Fatalf("warm assembly benchmark rebuilt partials: %+v", st)
	}
}

// BenchmarkServeCachedReport measures the repeated full-report request:
// after one warming query, every request is an LRU hit that re-encodes
// the cached report.
func BenchmarkServeCachedReport(b *testing.B) {
	srv := newServer(b, 4, nil)
	benchGet(b, srv, "/v1/report?format=text")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGet(b, srv, "/v1/report?format=text")
	}
	if st := srv.CacheStats(); st.Misses != 1 {
		b.Fatalf("cached benchmark missed the cache: %+v", st)
	}
}

// BenchmarkServeCachedParallel hammers the warm cache from parallel
// clients — the serving subsystem's steady state under heavy traffic.
func BenchmarkServeCachedParallel(b *testing.B) {
	srv := newServer(b, 4, nil)
	benchGet(b, srv, "/v1/artifact/fig3?format=json")
	var failures atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/artifact/fig3?format=json", nil))
			if rec.Code != http.StatusOK {
				failures.Add(1)
			}
		}
	})
	if failures.Load() > 0 {
		b.Fatalf("%d parallel requests failed", failures.Load())
	}
}
