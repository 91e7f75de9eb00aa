package query

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestRespondEncodeFailureIsReal500 is the regression test for the
// truncated-200 bug: the old handlers streamed WriteCSV/WriteJSON/Encode
// straight into the ResponseWriter, so an encoder failing after its
// first byte had already committed a 200 status and shipped a silently
// truncated body. respond buffers the whole encoding first — a failing
// writer must now produce a clean 500 carrying none of the partial body.
func TestRespondEncodeFailureIsReal500(t *testing.T) {
	rec := httptest.NewRecorder()
	respond(rec, "text/csv; charset=utf-8", `"deadbeef"`, func(w io.Writer) error {
		io.WriteString(w, "month,flashbots_blocks\n2021-01,")
		return errors.New("writer failed mid-row")
	})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	if body := rec.Body.String(); strings.Contains(body, "month,") {
		t.Errorf("partial body leaked into the error response: %q", body)
	}
	if !strings.Contains(rec.Body.String(), "writer failed mid-row") {
		t.Errorf("error body does not name the failure: %q", rec.Body.String())
	}
	if rec.Header().Get("ETag") != "" {
		t.Error("failed response must not carry a validator")
	}
}

// TestRespondSetsExactContentLength: the success path declares the
// buffered body's exact length, the content type and the validator.
func TestRespondSetsExactContentLength(t *testing.T) {
	rec := httptest.NewRecorder()
	respond(rec, "text/plain; charset=utf-8", `"abc"`, func(w io.Writer) error {
		_, err := io.WriteString(w, "hello, operator\n")
		return err
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(rec.Body.Len()) {
		t.Errorf("Content-Length = %q, body is %d bytes", got, rec.Body.Len())
	}
	if got := rec.Header().Get("ETag"); got != `"abc"` {
		t.Errorf("ETag = %q", got)
	}
}

// TestEtagMatch: RFC 9110 If-None-Match semantics — lists, the wildcard,
// weak-prefixed validators, and non-matches.
func TestEtagMatch(t *testing.T) {
	cases := []struct {
		header, etag string
		want         bool
	}{
		{`"a"`, `"a"`, true},
		{`"a", "b"`, `"b"`, true},
		{`*`, `"b"`, true},
		{`W/"a"`, `"a"`, true},
		{`"a"`, `"b"`, false},
		{``, `"a"`, false},
		{`"a"`, ``, false},
	}
	for _, c := range cases {
		if got := etagMatch(c.header, c.etag); got != c.want {
			t.Errorf("etagMatch(%q, %q) = %v, want %v", c.header, c.etag, got, c.want)
		}
	}
}

// TestEtagForIdentity: the validator varies with every component of the
// response identity (range, view, format, artifact) and is absent for
// mutable live sources.
func TestEtagForIdentity(t *testing.T) {
	base := Key{Archive: "/a", From: 1, To: 4, Scenario: "baseline"}
	seen := map[string]string{}
	variants := map[string]string{
		"base":   etagFor(base, "json", "fig3"),
		"format": etagFor(base, "csv", "fig3"),
		"name":   etagFor(base, "json", "table1"),
		"range":  etagFor(Key{Archive: "/a", From: 1, To: 5, Scenario: "baseline"}, "json", "fig3"),
		"view":   etagFor(Key{Archive: "/a", From: 1, To: 4, View: "union", Scenario: "baseline"}, "json", "fig3"),
	}
	for label, tag := range variants {
		if tag == "" || !strings.HasPrefix(tag, `"`) || !strings.HasSuffix(tag, `"`) {
			t.Errorf("%s: %q is not a quoted strong validator", label, tag)
		}
		if prev, dup := seen[tag]; dup {
			t.Errorf("%s and %s share validator %q", label, prev, tag)
		}
		seen[tag] = label
	}
	if again := etagFor(base, "json", "fig3"); again != variants["base"] {
		t.Errorf("validator is not deterministic: %q vs %q", again, variants["base"])
	}
	if live := etagFor(Key{Live: true, Height: 9}, "json", "fig3"); live != "" {
		t.Errorf("live key got validator %q, want none (snapshots are mutable)", live)
	}
}

// TestHistogramQuantiles: observations land in log-scale buckets and the
// interpolated quantiles come back in the right bucket's range.
func TestHistogramQuantiles(t *testing.T) {
	var h histogram
	if h.Quantile(0.5) != 0 || h.Count() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	// 90 fast observations, 10 slow ones: p50 must sit near the fast
	// cluster, p99 near the slow one.
	for i := 0; i < 90; i++ {
		h.Observe(300 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(900 * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	p50 := h.Quantile(0.50)
	if p50 < 100*time.Microsecond || p50 > 1*time.Millisecond {
		t.Errorf("p50 = %v, want within the fast bucket's factor-2 range", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 300*time.Millisecond || p99 > 2*time.Second {
		t.Errorf("p99 = %v, want within the slow bucket's factor-2 range", p99)
	}
	if m := h.Mean(); m < 80*time.Millisecond || m > 100*time.Millisecond {
		t.Errorf("mean = %v, want ≈ 90ms", m)
	}
	// An absurd observation overflows to the last finite bound instead of
	// panicking or vanishing.
	h.Observe(48 * time.Hour)
	if q := h.Quantile(1.0); q <= 0 {
		t.Errorf("overflowed max quantile = %v", q)
	}
}

// TestEndpointLabel: path classification is bounded — unknown paths all
// collapse into one label so clients probing random URLs cannot grow the
// metric set.
func TestEndpointLabel(t *testing.T) {
	cases := map[string]string{
		"/v1/artifact/fig3":   "/v1/artifact",
		"/v1/artifact/table1": "/v1/artifact",
		"/v1/artifacts":       "/v1/artifacts",
		"/v1/report":          "/v1/report",
		"/v1/manifest":        "/v1/manifest",
		"/v1/cache":           "/v1/cache",
		"/metrics":            "/metrics",
		"/v1/unknown":         "other",
		"/":                   "other",
		"/admin":              "other",
	}
	for path, want := range cases {
		if got := endpointLabel(path); got != want {
			t.Errorf("endpointLabel(%q) = %q, want %q", path, got, want)
		}
	}
}
