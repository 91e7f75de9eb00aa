package query_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"mevscope"
	"mevscope/internal/core/measure"
	"mevscope/internal/query"
)

// getWith performs a GET with extra headers and returns the recorder.
func getWith(tb testing.TB, h http.Handler, method, url string, headers map[string]string) *httptest.ResponseRecorder {
	tb.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(method, url, nil)
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	h.ServeHTTP(rec, req)
	return rec
}

// TestConditionalGet: the first artifact query returns a strong ETag; a
// repeat with If-None-Match comes back 304 with no body and without
// re-encoding — and, on a cold server whose LRU has never held the
// report, without analyzing at all (the validator is derived from the
// request identity, not the body).
func TestConditionalGet(t *testing.T) {
	var calls atomic.Int64
	srv := newServer(t, 4, &calls)

	first := getWith(t, srv, http.MethodGet, "/v1/artifact/fig3?format=json", nil)
	if first.Code != http.StatusOK {
		t.Fatalf("status %d: %s", first.Code, first.Body.String())
	}
	etag := first.Header().Get("ETag")
	if etag == "" || !strings.HasPrefix(etag, `"`) {
		t.Fatalf("ETag = %q, want a quoted strong validator", etag)
	}
	if cl := first.Header().Get("Content-Length"); cl == "" {
		t.Error("200 response has no Content-Length")
	}
	warm := calls.Load()

	second := getWith(t, srv, http.MethodGet, "/v1/artifact/fig3?format=json",
		map[string]string{"If-None-Match": etag})
	if second.Code != http.StatusNotModified {
		t.Fatalf("conditional repeat → %d, want 304", second.Code)
	}
	if second.Body.Len() != 0 {
		t.Errorf("304 carries a %d-byte body", second.Body.Len())
	}
	if got := second.Header().Get("ETag"); got != etag {
		t.Errorf("304 ETag = %q, want %q", got, etag)
	}
	if calls.Load() != warm {
		t.Errorf("304 re-analyzed: calls %d → %d", warm, calls.Load())
	}

	// A cold server over the same archive: the same validator matches and
	// must short-circuit before the report is ever built.
	var coldCalls atomic.Int64
	cold := newServer(t, 4, &coldCalls)
	rec := getWith(t, cold, http.MethodGet, "/v1/artifact/fig3?format=json",
		map[string]string{"If-None-Match": etag})
	if rec.Code != http.StatusNotModified {
		t.Fatalf("cold conditional → %d, want 304", rec.Code)
	}
	if got := coldCalls.Load(); got != 0 {
		t.Errorf("cold 304 ran %d analyses, want 0 (evicted reports must not rebuild for a 304)", got)
	}

	// A stale validator (different format ⇒ different identity) misses
	// and serves the full body.
	stale := getWith(t, srv, http.MethodGet, "/v1/artifact/fig3?format=csv",
		map[string]string{"If-None-Match": etag})
	if stale.Code != http.StatusOK || stale.Body.Len() == 0 {
		t.Errorf("stale validator → %d with %d bytes, want a full 200", stale.Code, stale.Body.Len())
	}
	if csvTag := stale.Header().Get("ETag"); csvTag == etag || csvTag == "" {
		t.Errorf("csv ETag = %q, must differ from json's %q", csvTag, etag)
	}

	// The report endpoint gets the same treatment.
	rep := getWith(t, srv, http.MethodGet, "/v1/report?format=text", nil)
	if rep.Code != http.StatusOK || rep.Header().Get("ETag") == "" {
		t.Fatalf("report → %d, ETag %q", rep.Code, rep.Header().Get("ETag"))
	}
	rep304 := getWith(t, srv, http.MethodGet, "/v1/report?format=text",
		map[string]string{"If-None-Match": rep.Header().Get("ETag")})
	if rep304.Code != http.StatusNotModified {
		t.Errorf("conditional report → %d, want 304", rep304.Code)
	}

	// An unknown artifact can never 304, even with a guessed validator:
	// it has no representation to validate against.
	if rec := getWith(t, srv, http.MethodGet, "/v1/artifact/nope",
		map[string]string{"If-None-Match": "*"}); rec.Code != http.StatusNotFound {
		t.Errorf("unknown artifact with wildcard validator → %d, want 404", rec.Code)
	}

	// Live snapshots are mutable and must not carry a validator.
	srv.SetLive(liveStub())
	live := getWith(t, srv, http.MethodGet, "/v1/artifact/table1?source=live", nil)
	if live.Code != http.StatusOK {
		t.Fatalf("live → %d", live.Code)
	}
	if tag := live.Header().Get("ETag"); tag != "" {
		t.Errorf("live response has ETag %q, want none", tag)
	}
}

// liveStub is a minimal live source for ETag/HEAD tests.
func liveStub() query.Live {
	return query.Live{
		Height:   func() uint64 { return 1 },
		Snapshot: func() (*measure.Report, uint64) { return &measure.Report{}, 1 },
	}
}

// TestHeadRequests: HEAD answers with GET's headers — including the
// exact Content-Length of the body it is not sending — status and ETag,
// and an empty body. Free once bodies are buffered.
func TestHeadRequests(t *testing.T) {
	srv := newServer(t, 4, nil)
	get := getWith(t, srv, http.MethodGet, "/v1/artifact/fig3?format=csv", nil)
	if get.Code != http.StatusOK {
		t.Fatalf("GET → %d", get.Code)
	}
	head := getWith(t, srv, http.MethodHead, "/v1/artifact/fig3?format=csv", nil)
	if head.Code != http.StatusOK {
		t.Fatalf("HEAD → %d", head.Code)
	}
	if head.Body.Len() != 0 {
		t.Errorf("HEAD carries a %d-byte body", head.Body.Len())
	}
	for _, h := range []string{"Content-Length", "Content-Type", "ETag"} {
		if head.Header().Get(h) != get.Header().Get(h) {
			t.Errorf("HEAD %s = %q, GET says %q", h, head.Header().Get(h), get.Header().Get(h))
		}
	}
	// HEAD on an error path: status matches GET's, still no body.
	if rec := getWith(t, srv, http.MethodHead, "/v1/artifact/nope", nil); rec.Code != http.StatusNotFound || rec.Body.Len() != 0 {
		t.Errorf("HEAD on 404 → %d with %d bytes", rec.Code, rec.Body.Len())
	}
}

// TestMethodNotAllowedSetsAllow: RFC 9110 requires a 405 to name the
// methods that would have worked.
func TestMethodNotAllowedSetsAllow(t *testing.T) {
	srv := newServer(t, 4, nil)
	for _, method := range []string{http.MethodPost, http.MethodPut, http.MethodDelete} {
		rec := getWith(t, srv, method, "/v1/report", nil)
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s → %d, want 405", method, rec.Code)
		}
		if allow := rec.Header().Get("Allow"); allow != "GET, HEAD" {
			t.Errorf("%s 405 Allow = %q, want \"GET, HEAD\"", method, allow)
		}
	}
}

// TestMetricsEndpoint: drive a known request mix, then read it back in
// both formats — JSON for structured fields (per-endpoint counts, status
// classes, bytes, latency, embedded cache counters) and Prometheus text
// exposition for the scrape surface.
func TestMetricsEndpoint(t *testing.T) {
	srv := newServer(t, 4, nil)

	ok := getWith(t, srv, http.MethodGet, "/v1/artifact/fig3?format=json", nil)
	if ok.Code != http.StatusOK {
		t.Fatalf("seed request failed: %d", ok.Code)
	}
	etag := ok.Header().Get("ETag")
	getWith(t, srv, http.MethodGet, "/v1/artifact/fig3?format=json", map[string]string{"If-None-Match": etag})
	getWith(t, srv, http.MethodGet, "/v1/artifact/nope", nil)
	getWith(t, srv, http.MethodGet, "/v1/manifest", nil)

	rec := getWith(t, srv, http.MethodGet, "/metrics?format=json", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics?format=json → %d: %s", rec.Code, rec.Body.String())
	}
	var snap query.MetricsSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("metrics JSON: %v\n%s", err, rec.Body.String())
	}
	art := snap.Endpoints["/v1/artifact"]
	if art.Requests != 3 {
		t.Errorf("artifact requests = %d, want 3 (200 + 304 + 404)", art.Requests)
	}
	if art.Status["2xx"] != 1 || art.Status["3xx"] != 1 || art.Status["4xx"] != 1 {
		t.Errorf("status classes = %v, want one each of 2xx/3xx/4xx", art.Status)
	}
	if art.NotModified != 1 {
		t.Errorf("not_modified = %d, want 1", art.NotModified)
	}
	if art.Bytes == 0 {
		t.Error("artifact endpoint served 0 bytes")
	}
	if art.Latency.Count != 3 || art.Latency.P99 <= 0 {
		t.Errorf("latency summary = %+v", art.Latency)
	}
	if man := snap.Endpoints["/v1/manifest"]; man.Requests != 1 {
		t.Errorf("manifest requests = %d, want 1", man.Requests)
	}
	if snap.Caches.Reports.Misses == 0 {
		t.Errorf("embedded report-cache stats look empty: %+v", snap.Caches.Reports)
	}
	if ps := srv.PartialCacheStats(); snap.Caches.Partials != ps || ps.Misses == 0 {
		t.Errorf("embedded partial-cache stats %+v, want the server's non-empty %+v", snap.Caches.Partials, ps)
	}

	prom := getWith(t, srv, http.MethodGet, "/metrics", nil)
	if prom.Code != http.StatusOK {
		t.Fatalf("/metrics → %d", prom.Code)
	}
	if ct := prom.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("prometheus content type = %q", ct)
	}
	body := prom.Body.String()
	for _, want := range []string{
		`mevscope_http_requests_total{endpoint="/v1/artifact",class="2xx"} 1`,
		`mevscope_http_requests_total{endpoint="/v1/artifact",class="3xx"} 1`,
		`mevscope_http_not_modified_total{endpoint="/v1/artifact"} 1`,
		`# TYPE mevscope_http_request_seconds histogram`,
		`mevscope_http_request_seconds_count{endpoint="/v1/artifact"} 3`,
		`mevscope_http_request_seconds_bucket{endpoint="/v1/artifact",le="+Inf"} 3`,
		`mevscope_cache_hits_total{cache="reports"}`,
		fmt.Sprintf(`mevscope_cache_misses_total{cache="partials"} %d`, srv.PartialCacheStats().Misses),
		fmt.Sprintf(`mevscope_cache_bytes{cache="partials"} %d`, srv.PartialCacheStats().Bytes),
		`mevscope_cache_bytes{cache="segments"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
	if rec := getWith(t, srv, http.MethodGet, "/metrics?format=xml", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("/metrics?format=xml → %d, want 400", rec.Code)
	}
}

// TestMetricsDisabled: Config.DisableMetrics removes the surface — the
// endpoint 404s, the snapshot reports absence, requests pay nothing.
func TestMetricsDisabled(t *testing.T) {
	srv, err := query.New(query.Config{
		Archive:        testArchive(t),
		AnalyzePartial: mevscope.AnalyzeDatasetPartial,
		Workers:        1,
		DisableMetrics: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec := getWith(t, srv, http.MethodGet, "/metrics", nil); rec.Code != http.StatusNotFound {
		t.Errorf("/metrics with metrics disabled → %d, want 404", rec.Code)
	}
	if _, ok := srv.MetricsSnapshot(); ok {
		t.Error("MetricsSnapshot reports metrics present while disabled")
	}
	// The API itself still serves.
	if code, _ := get(t, srv, "/v1/manifest"); code != http.StatusOK {
		t.Error("manifest endpoint broken with metrics disabled")
	}
}
