package query_test

import (
	"encoding/json"
	"fmt"
	"net/http"
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
	"mevscope/internal/types"
)

// months2021 is January through the n-th month of 2021 — the
// single-month report keys both stress tests request.
func months2021(t *testing.T, n int) []types.Month {
	t.Helper()
	var months []types.Month
	for k := 0; k < n; k++ {
		m, err := types.ParseMonth(fmt.Sprintf("2021-%02d", k+1))
		if err != nil {
			t.Fatal(err)
		}
		months = append(months, m)
	}
	return months
}

// realPartials precomputes real single-month partials of the shared
// test archive, keyed by month label — stub AnalyzePartial functions
// return these so merged reports render like the real thing while the
// test controls exactly when each "analysis" completes.
func realPartials(t *testing.T, months []types.Month) map[string]*measure.Partial {
	t.Helper()
	dir := testArchive(t)
	out := make(map[string]*measure.Partial, len(months))
	for _, m := range months {
		ds, _, err := archive.ReadRange(dir, m, m)
		if err != nil {
			t.Fatal(err)
		}
		p, err := mevscope.AnalyzeDatasetPartial(ds, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		out[m.Label()] = p
	}
	return out
}

// TestConcurrentStressPartialLRUDedup is the partial-cache mirror of
// TestConcurrentStressLRUDedup: a byte-capped partial LRU holding one
// entry while 8 distinct single-month report keys are requested by 25
// goroutines each, under -race. Report-level in-flight dedup collapses
// each key to one build; each build's partial lookup registers before
// the gate opens, so every month is analyzed exactly once even though
// the published partials evict each other immediately.
//
// Determinism: the stub AnalyzePartial blocks every month build on a
// gate, and the gate opens only once all 200 requests have registered
// a report-cache lookup and all 8 builds a partial-cache lookup —
// nothing can publish while the gate is shut, so no goroutine can
// arrive after an eviction and trigger a second analysis.
func TestConcurrentStressPartialLRUDedup(t *testing.T) {
	const (
		keys       = 8
		perKey     = 25
		totalBurst = keys * perKey
	)
	// Months 2021-01..2021-08 — the same keys the report-LRU stress uses.
	pre := realPartials(t, months2021(t, keys))

	release := make(chan struct{})
	perMonthCalls := make(map[string]*int, keys)
	var callsMu sync.Mutex
	srv, err := query.New(query.Config{
		Archive:           testArchive(t),
		CacheSize:         keys * 2,
		PartialCacheBytes: 1, // holds exactly one partial: every publish evicts
		Workers:           1,
		AnalyzePartial: func(ds *dataset.Dataset, workers int, sp *obs.Span) (*measure.Partial, error) {
			id := ds.Chain.Timeline.FirstMonth.Label()
			callsMu.Lock()
			if perMonthCalls[id] == nil {
				perMonthCalls[id] = new(int)
			}
			*perMonthCalls[id]++
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

	// Open the gate once every request registered its report lookup and
	// every build its partial lookup.
	deadline := time.Now().Add(30 * time.Second)
	for {
		rs, ps := srv.CacheStats(), srv.PartialCacheStats()
		if rs.Hits+rs.Misses >= totalBurst && ps.Hits+ps.Misses >= keys {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lookups stalled before the deadline: reports %+v, partials %+v", rs, ps)
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
	for id, n := range perMonthCalls {
		if *n != 1 {
			t.Errorf("month %s analyzed %d times, want exactly 1 (partial in-flight dedup)", id, *n)
		}
	}
	monthsAnalyzed := len(perMonthCalls)
	callsMu.Unlock()
	if monthsAnalyzed != keys {
		t.Errorf("%d distinct months analyzed, want %d", monthsAnalyzed, keys)
	}

	burst := srv.PartialCacheStats()
	if burst.Misses != keys || burst.Hits != 0 {
		t.Errorf("burst partial lookups = %d hits + %d misses, want 0 + %d", burst.Hits, burst.Misses, keys)
	}
	if burst.Evictions < keys-1 {
		t.Errorf("partial evictions = %d, want ≥ %d (%d publishes through a one-entry LRU)",
			burst.Evictions, keys-1, keys)
	}
	if burst.Size != 1 {
		t.Errorf("partial cache holds %d entries, want 1 (byte cap keeps the newest)", burst.Size)
	}

	// An assembly across the evicted months: only the newest partial can
	// still be resident, so the 8-month range re-analyzes at least 7
	// months sequentially — every response stays correct, and the
	// /v1/cache counters reconcile with the server's own stats.
	rangeURL := fmt.Sprintf("/v1/artifact/table1?format=json&months=2021-01..2021-%02d", keys)
	if code, body := get(t, srv, rangeURL); code != http.StatusOK {
		t.Fatalf("%s → %d: %s", rangeURL, code, body)
	}
	after := srv.PartialCacheStats()
	if got := after.Hits + after.Misses - keys; got != keys {
		t.Errorf("assembly registered %d partial lookups, want %d (one per month)", got, keys)
	}
	if after.Misses < 2*keys-1 {
		t.Errorf("assembly re-analyzed too few months: %+v (want ≥ %d total misses)", after, 2*keys-1)
	}

	code, body := get(t, srv, "/v1/cache")
	if code != http.StatusOK {
		t.Fatal("cache endpoint failed")
	}
	var cacheView struct {
		Reports  query.CacheStats         `json:"reports"`
		Partials *query.PartialCacheStats `json:"partials"`
	}
	if err := json.Unmarshal([]byte(body), &cacheView); err != nil {
		t.Fatal(err)
	}
	if cacheView.Partials == nil {
		t.Fatal("/v1/cache omits the partials level")
	}
	if *cacheView.Partials != after {
		t.Errorf("/v1/cache partials %+v disagree with PartialCacheStats %+v", *cacheView.Partials, after)
	}
	if got := cacheView.Reports.Hits + cacheView.Reports.Misses; got != totalBurst+1 {
		t.Errorf("report-cache lookups = %d, want %d (one per artifact request)", got, totalBurst+1)
	}
}

// TestPartialCacheViewScoping pins the merge-only path across
// observation views: month partials carry no view, so after one view's
// full-window report every other view's full-window report merges the
// cached partials — no month analysis, no archive read, one report
// build — and still labels its report with its own view.
func TestPartialCacheViewScoping(t *testing.T) {
	var calls atomic.Int64
	srv, err := query.New(query.Config{
		Archive:        multiVantageArchive(t),
		AnalyzePartial: countingPartial(&calls),
		Workers:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every archive read of a build records an archive:restore span.
	restores := func() int64 {
		snap, ok := srv.MetricsSnapshot()
		if !ok {
			t.Fatal("metrics disabled")
		}
		return snap.Stages[obs.StageRestore].Count
	}

	views := []string{"", "union", "vantage:1", "quorum:2"}
	bodies := make(map[string]string, len(views))
	for i, v := range views {
		analyses, reads, reports := calls.Load(), restores(), builds(t, srv)
		url := "/v1/artifact/vantage_sensitivity?format=json&view=" + v
		code, body := get(t, srv, url)
		if code != http.StatusOK {
			t.Fatalf("%s → %d: %s", url, code, body)
		}
		bodies[v] = body
		analyses, reads, reports = calls.Load()-analyses, restores()-reads, builds(t, srv)-reports
		if i == 0 {
			if want := archivedMonths(t, multiVantageArchive(t), ""); analyses != want || reads == 0 {
				t.Errorf("view %q cold: %d month analyses and %d archive reads, want %d and some", v, analyses, reads, want)
			}
		} else if analyses != 0 || reads != 0 || reports != 1 {
			t.Errorf("view %q after view %q: %d month analyses, %d archive reads, %d report builds; want 0, 0, 1",
				v, views[0], analyses, reads, reports)
		}
	}
	if bodies["union"] == bodies["vantage:1"] {
		t.Error("union and vantage:1 served identical vantage-sensitivity bodies — the merge ignored the view")
	}
}
