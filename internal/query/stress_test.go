package query_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
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

// TestConcurrentMixedRoutes: one server answers every route correctly
// under 1024 concurrent clients. Each goroutine first requests one URL
// of the mix in turn, so every URL is hit, then seeded draws from it:
// every artifact in JSON, CSV and text; reports, artifact listings and
// the manifest under four views; cache and metrics; blocks across every
// month; the 18 sliding 6-month windows under four views; and, on the
// routes with an ETag, conditional GETs carrying it. Every response
// must be 200, or 304 exactly when it sent its URL's ETag; every
// deterministic body must equal a fresh sequential server's (blocks:
// the full restore's); and the month partials are reused across the
// whole load: each archived month is analyzed exactly once.
func TestConcurrentMixedRoutes(t *testing.T) {
	const (
		clients = 1024
		draws   = 3
	)
	dir := multiVantageArchive(t)
	man, err := archive.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	views := []string{"", "vantage:1", "union", "quorum:2"}
	withView := func(url, view string) string {
		if view == "" {
			return url
		}
		sep := "?"
		if strings.Contains(url, "?") {
			sep = "&"
		}
		return url + sep + "view=" + view
	}
	var urls []string
	for _, name := range measure.ArtifactNames() {
		for _, format := range []string{"json", "csv", "text"} {
			urls = append(urls, fmt.Sprintf("/v1/artifact/%s?format=%s", name, format))
		}
	}
	for _, view := range views {
		urls = append(urls,
			withView("/v1/report?format=text", view),
			withView("/v1/report?format=json", view),
			withView("/v1/artifacts", view))
		for _, u := range overlappingRangeURLs() {
			urls = append(urls, withView(u, view))
		}
	}
	urls = append(urls, "/v1/manifest")
	// The fresh sequential server's bodies and ETags.
	want := map[string]string{}
	etags := map[string]string{}
	ref, err := query.New(query.Config{Archive: dir, AnalyzePartial: mevscope.AnalyzeDatasetPartial, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range urls {
		rec := getWith(t, ref, http.MethodGet, u, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("reference %s → %d: %s", u, rec.Code, rec.Body)
		}
		want[u], etags[u] = rec.Body.String(), rec.Header().Get("ETag")
	}
	var nums []uint64
	for _, si := range man.Segments {
		nums = append(nums, si.FirstBlock, (si.FirstBlock+si.LastBlock)/2, si.LastBlock)
	}
	blocks := blockBodies(t, dir, nums)
	for _, n := range nums {
		u := fmt.Sprintf("/v1/block?number=%d", n)
		urls = append(urls, u)
		want[u] = blocks[n]
	}
	// Counters and gauges change under load: checked for status and
	// shape, not bytes.
	urls = append(urls, "/v1/cache", "/metrics", "/metrics?format=json")

	var calls atomic.Int64
	srv, err := query.New(query.Config{Archive: dir, AnalyzePartial: countingPartial(&calls), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu   sync.Mutex
		errs []string
		wg   sync.WaitGroup
	)
	start := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			<-start
			for d := 0; d <= draws; d++ {
				u := urls[c%len(urls)]
				if d > 0 {
					u = urls[rng.Intn(len(urls))]
				}
				var inm string
				var hdr map[string]string
				if etags[u] != "" && rng.Intn(4) == 0 {
					inm = etags[u]
					hdr = map[string]string{"If-None-Match": inm}
				}
				if msg := checkMixed(getWith(t, srv, http.MethodGet, u, hdr), u, inm, want, etags); msg != "" {
					mu.Lock()
					errs = append(errs, msg)
					mu.Unlock()
				}
			}
		}(c)
	}
	close(start)
	wg.Wait()
	for i, e := range errs {
		if i == 20 {
			t.Errorf("… and %d more", len(errs)-i)
			break
		}
		t.Error(e)
	}
	if got, months := calls.Load(), int64(len(man.Segments)); got != months {
		t.Errorf("month analyses = %d under load, want %d: each archived month exactly once", got, months)
	}
}

// checkMixed describes what is wrong with one response of
// TestConcurrentMixedRoutes' mix, or returns "".
func checkMixed(rec *httptest.ResponseRecorder, url, inm string, want, etags map[string]string) string {
	if inm != "" {
		if rec.Code != http.StatusNotModified || rec.Header().Get("ETag") != inm {
			return fmt.Sprintf("%s with its ETag → %d (ETag %q), want 304", url, rec.Code, rec.Header().Get("ETag"))
		}
		return ""
	}
	if rec.Code != http.StatusOK {
		return fmt.Sprintf("%s → %d, want 200: %.200s", url, rec.Code, rec.Body)
	}
	body, ok := want[url]
	switch {
	case url == "/metrics":
		if !strings.Contains(rec.Body.String(), "mevscope_http_requests_total") {
			return fmt.Sprintf("%s → no request counters: %.200s", url, rec.Body)
		}
	case !ok:
		if !json.Valid(rec.Body.Bytes()) {
			return fmt.Sprintf("%s → invalid JSON: %.200s", url, rec.Body)
		}
	case rec.Body.String() != body:
		return fmt.Sprintf("%s → %d bytes differing from the sequential server's %d", url, rec.Body.Len(), len(body))
	case rec.Header().Get("ETag") != etags[url]:
		return fmt.Sprintf("%s → ETag %q, want %q", url, rec.Header().Get("ETag"), etags[url])
	}
	return ""
}
