package query_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"mevscope"
	"mevscope/internal/archive"
	"mevscope/internal/core/measure"
	"mevscope/internal/dataset"
	"mevscope/internal/obs"
	"mevscope/internal/query"
)

// TestConcurrentStressLRUDedup hammers the report LRU and the in-flight
// dedup from many goroutines across evictions, under -race. The cache
// holds 2 reports while 8 distinct single-month keys are requested by
// 25 goroutines each, so builds evict each other while they publish —
// and the in-flight dedup must still collapse every key to exactly one
// build, analyzing its month once.
//
// Determinism: the stub AnalyzePartial blocks every build on a gate,
// and the gate opens only once all 200 requests have registered a
// report-cache lookup (CacheStats misses — nothing can be cached while
// builds are gated, so every lookup is a miss). At that point each
// goroutine is either its key's builder or a waiter on the builder's
// in-flight call; none can arrive after an eviction and rebuild, so
// "exactly one per key" is an invariant, not a scheduling accident. The
// build count comes from the "total" stage histogram, which no partial
// cache can absorb.
func TestConcurrentStressLRUDedup(t *testing.T) {
	const (
		keys       = 8
		perKey     = 25
		totalBurst = keys * perKey
	)
	pre := realPartials(t, months2021(t, keys))

	release := make(chan struct{})
	perKeyCalls := make(map[string]*int, keys)
	var callsMu sync.Mutex
	srv, err := query.New(query.Config{
		Archive:   testArchive(t),
		CacheSize: 2,
		Workers:   1,
		AnalyzePartial: func(ds *dataset.Dataset, workers int, sp *obs.Span) (*measure.Partial, error) {
			// Each key is one month, which identifies the key this build
			// is for.
			id := ds.Chain.Timeline.FirstMonth.Label()
			callsMu.Lock()
			if perKeyCalls[id] == nil {
				perKeyCalls[id] = new(int)
			}
			*perKeyCalls[id]++
			callsMu.Unlock()
			<-release
			return pre[id], nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	urlFor := func(k int) string {
		return fmt.Sprintf("/v1/artifact/table1?format=json&months=2021-%02d..2021-%02d", k+1, k+1)
	}

	var wg sync.WaitGroup
	errs := make(chan string, totalBurst)
	for k := 0; k < keys; k++ {
		for i := 0; i < perKey; i++ {
			wg.Add(1)
			go func(url string) {
				defer wg.Done()
				if code, body := get(t, srv, url); code != http.StatusOK {
					errs <- fmt.Sprintf("%s → %d: %s", url, code, body)
				}
			}(urlFor(k))
		}
	}

	// Open the gate once every request has registered its lookup.
	deadline := time.Now().Add(30 * time.Second)
	for srv.CacheStats().Hits+srv.CacheStats().Misses < totalBurst {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d lookups registered before the deadline",
				srv.CacheStats().Misses, totalBurst)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	callsMu.Lock()
	totalAnalyzes := 0
	for id, n := range perKeyCalls {
		totalAnalyzes += *n
		if *n != 1 {
			t.Errorf("key %s analyzed %d times, want exactly 1 (in-flight dedup)", id, *n)
		}
	}
	callsMu.Unlock()
	if len(perKeyCalls) != keys {
		t.Errorf("%d distinct keys analyzed, want %d", len(perKeyCalls), keys)
	}
	if n := builds(t, srv); n != keys {
		t.Errorf("report builds = %d, want %d (one per key: in-flight dedup)", n, keys)
	}

	burst := srv.CacheStats()
	if burst.Hits+burst.Misses != totalBurst {
		t.Errorf("burst lookups = %d hits + %d misses, want %d total",
			burst.Hits, burst.Misses, totalBurst)
	}
	if burst.Evictions < keys-2 {
		t.Errorf("evictions = %d, want ≥ %d (8 builds through a 2-entry LRU)", burst.Evictions, keys-2)
	}

	// A sequential re-pass over every key: evicted keys rebuild, cached
	// ones hit — either way every request is exactly one lookup, so the
	// /v1/cache and /metrics counters must reconcile:
	// hits + misses == lookups == artifact-endpoint requests.
	for k := 0; k < keys; k++ {
		if code, body := get(t, srv, urlFor(k)); code != http.StatusOK {
			t.Fatalf("re-pass %s → %d: %s", urlFor(k), code, body)
		}
	}
	totalRequests := int64(totalBurst + keys)

	code, body := get(t, srv, "/v1/cache")
	if code != http.StatusOK {
		t.Fatal("cache endpoint failed")
	}
	var cacheView struct {
		Reports query.CacheStats `json:"reports"`
	}
	if err := json.Unmarshal([]byte(body), &cacheView); err != nil {
		t.Fatal(err)
	}
	if got := cacheView.Reports.Hits + cacheView.Reports.Misses; got != totalRequests {
		t.Errorf("report-cache lookups = %d, want %d (one per request)", got, totalRequests)
	}

	snap, ok := srv.MetricsSnapshot()
	if !ok {
		t.Fatal("metrics disabled")
	}
	art := snap.Endpoints["/v1/artifact"]
	if art.Requests != totalRequests {
		t.Errorf("metrics artifact requests = %d, want %d", art.Requests, totalRequests)
	}
	if art.Requests != cacheView.Reports.Hits+cacheView.Reports.Misses {
		t.Errorf("metrics (%d requests) and cache counters (%d lookups) do not reconcile",
			art.Requests, cacheView.Reports.Hits+cacheView.Reports.Misses)
	}
	if art.Status["2xx"] != totalRequests {
		t.Errorf("status classes = %v, want %d clean 2xx", art.Status, totalRequests)
	}
	if art.Latency.Count != totalRequests {
		t.Errorf("latency observations = %d, want %d", art.Latency.Count, totalRequests)
	}
}

// TestConcurrentBlockLookupsDuringColdBuild: block lookups read the
// month level while a report build reads the same months' chunks on its
// own, and lookups in one month share one assembly of it. Lookups of the
// first, a middle and the last block of every month run concurrently
// with a cold full-window report build on the same Workers: 2 server;
// under -race, every block body must equal the full restore's block as
// the server encodes it, and the report must equal a fresh server's.
func TestConcurrentBlockLookupsDuringColdBuild(t *testing.T) {
	dir := testArchive(t)
	man, err := archive.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	var nums []uint64
	for _, si := range man.Segments {
		nums = append(nums, si.FirstBlock, (si.FirstBlock+si.LastBlock)/2, si.LastBlock)
	}
	want := blockBodies(t, dir, nums)
	newSrv := func() *query.Server {
		srv, err := query.New(query.Config{Archive: dir, AnalyzePartial: mevscope.AnalyzeDatasetPartial, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	srv := newSrv()

	var wg sync.WaitGroup
	errs := make(chan string, len(want)+1)
	var report string
	wg.Add(1)
	go func() {
		defer wg.Done()
		code, body := get(t, srv, "/v1/report?format=text")
		if code != http.StatusOK {
			errs <- fmt.Sprintf("full-window report → %d: %s", code, body)
		}
		report = body
	}()
	for n, body := range want {
		wg.Add(1)
		go func(n uint64, want string) {
			defer wg.Done()
			if code, got := get(t, srv, fmt.Sprintf("/v1/block?number=%d", n)); code != http.StatusOK || got != want {
				errs <- fmt.Sprintf("block %d → %d, body equal to the full restore's: %v", n, code, got == want)
			}
		}(n, body)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if code, ref := get(t, newSrv(), "/v1/report?format=text"); code != http.StatusOK || report != ref {
		t.Errorf("report built alongside block lookups differs from a fresh server's (fresh → %d)", code)
	}
}
