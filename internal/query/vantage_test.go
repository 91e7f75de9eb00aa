package query_test

import (
	"encoding/json"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mevscope"
	"mevscope/internal/archive"
	"mevscope/internal/dataset"
	"mevscope/internal/query"
	"mevscope/internal/sim"
)

// Shared multi-vantage test archive, simulated once per test process.
var (
	mvArchOnce sync.Once
	mvArchDir  string
	mvArchErr  error
)

func multiVantageArchive(tb testing.TB) string {
	tb.Helper()
	mvArchOnce.Do(func() {
		dir, err := os.MkdirTemp("", "mevscope-query-mv-*")
		if err != nil {
			mvArchErr = err
			return
		}
		cfg, err := mevscope.Options{Seed: 9, BlocksPerMonth: 40, Scenario: "multi-vantage-union"}.Config()
		if err != nil {
			mvArchErr = err
			return
		}
		s, err := sim.New(cfg)
		if err != nil {
			mvArchErr = err
			return
		}
		if err := s.Run(); err != nil {
			mvArchErr = err
			return
		}
		meta := map[string]string{"scenario": "multi-vantage-union", "seed": "9"}
		if _, err := archive.Write(dir, dataset.FromSim(s), meta); err != nil {
			mvArchErr = err
			return
		}
		mvArchDir = dir
	})
	if mvArchErr != nil {
		tb.Fatal(mvArchErr)
	}
	return mvArchDir
}

func newMultiVantageServer(tb testing.TB, calls *atomic.Int64) *query.Server {
	tb.Helper()
	srv, err := query.New(query.Config{
		Archive:        multiVantageArchive(tb),
		AnalyzePartial: countingPartial(calls),
		Workers:        1,
		CacheSize:      8,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return srv
}

// TestMonthsParseFailuresAre400: every malformed months= spelling is a
// 400 naming the archive's real month window — never a raw 500.
func TestMonthsParseFailuresAre400(t *testing.T) {
	srv := newServer(t, 4, nil)
	for _, months := range []string{"banana", "2021-13", "2021-06..2021-03", "2019-01..2019-02", "2021-03..", "1/2021..bogus"} {
		for _, path := range []string{"/v1/artifact/fig3", "/v1/artifacts", "/v1/report"} {
			code, body := get(t, srv, path+"?months="+months)
			if code != http.StatusBadRequest {
				t.Errorf("%s?months=%s → %d (%s), want 400", path, months, code, strings.TrimSpace(body))
				continue
			}
			if !strings.Contains(body, "2020-05") || !strings.Contains(body, "2022-03") {
				t.Errorf("%s?months=%s body %q does not name the archive window", path, months, strings.TrimSpace(body))
			}
		}
	}
}

// TestViewParamValidation: unknown views and out-of-range selections are
// 400s with the valid range; the live source rejects view selection.
func TestViewParamValidation(t *testing.T) {
	srv := newMultiVantageServer(t, nil)
	for _, bad := range []string{"bogus", "quorum:0", "quorum:9", "vantage:4", "vantage:-1"} {
		code, body := get(t, srv, "/v1/artifact/fig9?view="+bad)
		if code != http.StatusBadRequest {
			t.Errorf("view=%s → %d (%s), want 400", bad, code, strings.TrimSpace(body))
		}
	}
	// The single-vantage archive accepts only vantage:0.
	single := newServer(t, 4, nil)
	if code, _ := get(t, single, "/v1/artifact/fig9?view=vantage:1"); code != http.StatusBadRequest {
		t.Errorf("vantage:1 on a single-vantage archive should be 400, got %d", code)
	}
	if code, _ := get(t, single, "/v1/artifact/fig9?view=vantage:0"); code != http.StatusOK {
		t.Errorf("vantage:0 on a single-vantage archive should be 200, got %d", code)
	}
}

// TestViewSelection: the union view observes at least as much as any
// single vantage, so it classifies no more sandwiches as private; each
// view is its own report entry, both merged from one analysis per month.
func TestViewSelection(t *testing.T) {
	var calls atomic.Int64
	srv := newMultiVantageServer(t, &calls)
	fig9 := func(view string) (total, private int64) {
		url := "/v1/artifact/fig9?format=json"
		if view != "" {
			url += "&view=" + view
		}
		code, body := get(t, srv, url)
		if code != http.StatusOK {
			t.Fatalf("view %q → %d: %s", view, code, body)
		}
		var art struct {
			Rows    [][]any          `json:"rows"`
			Scalars map[string]int64 `json:"scalars"`
		}
		if err := json.Unmarshal([]byte(body), &art); err != nil {
			t.Fatal(err)
		}
		for _, row := range art.Rows {
			if row[0] == "private_non_flashbots" {
				private = int64(row[1].(float64))
			}
		}
		return art.Scalars["total"], private
	}
	totalV0, privateV0 := fig9("vantage:0")
	totalU, privateU := fig9("union")
	if totalV0 != totalU {
		t.Errorf("window sandwich totals differ across views: %d vs %d", totalV0, totalU)
	}
	if privateU > privateV0 {
		t.Errorf("union view classifies more private (%d) than vantage 0 (%d)", privateU, privateV0)
	}
	months := archivedMonths(t, multiVantageArchive(t), "")
	if got, n := calls.Load(), builds(t, srv); got != months || n != 2 {
		t.Errorf("%d month analyses in %d builds, want %d in 2 (each month once for both views)", got, n, months)
	}
	// Re-querying either view hits the cache.
	fig9("union")
	fig9("vantage:0")
	if got, n := calls.Load(), builds(t, srv); got != months || n != 2 {
		t.Errorf("after re-query: %d month analyses in %d builds, want %d in 2", got, n, months)
	}
}

// TestVantageSensitivityServed: the new artifact is served in all three
// formats with real rows for a multi-vantage archive.
func TestVantageSensitivityServed(t *testing.T) {
	srv := newMultiVantageServer(t, nil)
	code, body := get(t, srv, "/v1/artifact/vantage_sensitivity?format=json")
	if code != http.StatusOK {
		t.Fatalf("json → %d: %s", code, body)
	}
	var art struct {
		Name    string           `json:"name"`
		Rows    [][]any          `json:"rows"`
		Scalars map[string]any   `json:"scalars"`
		Columns []map[string]any `json:"columns"`
	}
	if err := json.Unmarshal([]byte(body), &art); err != nil {
		t.Fatal(err)
	}
	if art.Name != "vantage_sensitivity" || len(art.Rows) == 0 {
		t.Fatalf("artifact name=%q rows=%d", art.Name, len(art.Rows))
	}
	if v, ok := art.Scalars["vantages"].(float64); !ok || int(v) != 4 {
		t.Errorf("vantages scalar = %v, want 4", art.Scalars["vantages"])
	}
	if _, ok := art.Scalars["union_private_sandwiches"]; !ok {
		t.Error("union_private_sandwiches scalar missing")
	}
	code, csvBody := get(t, srv, "/v1/artifact/vantage_sensitivity?format=csv")
	if code != http.StatusOK || !strings.Contains(csvBody, "union_observed") {
		t.Errorf("csv → %d, header missing: %s", code, firstLine(csvBody))
	}
	code, textBody := get(t, srv, "/v1/artifact/vantage_sensitivity?format=text")
	if code != http.StatusOK || !strings.Contains(textBody, "vantage") {
		t.Errorf("text → %d: %s", code, firstLine(textBody))
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
