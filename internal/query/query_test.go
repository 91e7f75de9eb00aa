package query_test

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mevscope"
	"mevscope/internal/archive"
	"mevscope/internal/core/measure"
	"mevscope/internal/dataset"
	"mevscope/internal/obs"
	"mevscope/internal/query"
	"mevscope/internal/sim"
	"mevscope/internal/types"
)

// Shared test archive: one world simulated once per test process.
var (
	archOnce sync.Once
	archDir  string
	archErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if archDir != "" {
		os.RemoveAll(archDir)
	}
	if mvArchDir != "" {
		os.RemoveAll(mvArchDir)
	}
	if assemblyArchDir != "" {
		os.RemoveAll(assemblyArchDir)
	}
	os.Exit(code)
}

// testArchive simulates a small full-window world (the observation
// window opens, so every artifact has rows) and archives it once per
// test process.
func testArchive(tb testing.TB) string {
	tb.Helper()
	archOnce.Do(func() {
		dir, err := os.MkdirTemp("", "mevscope-query-*")
		if err != nil {
			archErr = err
			return
		}
		archDir = dir
		cfg, err := mevscope.Options{Seed: 7, BlocksPerMonth: 50}.Config()
		if err != nil {
			archErr = err
			return
		}
		s, err := sim.New(cfg)
		if err != nil {
			archErr = err
			return
		}
		if err := s.Run(); err != nil {
			archErr = err
			return
		}
		meta := map[string]string{"scenario": "baseline", "seed": "7"}
		_, archErr = archive.Write(dir, dataset.FromSim(s), meta)
	})
	if archErr != nil {
		tb.Fatal(archErr)
	}
	return archDir
}

// countingPartial wraps the real month analysis with a call counter:
// each call is one month analyzed. A nil counter counts nothing.
func countingPartial(calls *atomic.Int64) query.PartialFunc {
	return func(ds *dataset.Dataset, workers int, sp *obs.Span) (*measure.Partial, error) {
		if calls != nil {
			calls.Add(1)
		}
		return mevscope.AnalyzeDatasetPartial(ds, workers, sp)
	}
}

// newServer builds a server over the shared archive with a call-counting
// month analysis.
func newServer(tb testing.TB, cacheSize int, calls *atomic.Int64) *query.Server {
	tb.Helper()
	srv, err := query.New(query.Config{
		Archive:        testArchive(tb),
		AnalyzePartial: countingPartial(calls),
		Workers:        1,
		CacheSize:      cacheSize,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return srv
}

// builds is how many cold report builds the server has run: each
// successful build records exactly one "total" stage observation.
func builds(tb testing.TB, srv *query.Server) int64 {
	tb.Helper()
	snap, ok := srv.MetricsSnapshot()
	if !ok {
		tb.Fatal("metrics disabled")
	}
	return snap.Stages["total"].Count
}

// archivedMonths counts the archive's segments inside the months spec
// (empty: the whole archive) — the month analyses a cold build of that
// range runs when no month partial is cached yet.
func archivedMonths(tb testing.TB, dir, spec string) int64 {
	tb.Helper()
	man, err := archive.ReadManifest(dir)
	if err != nil {
		tb.Fatal(err)
	}
	from, to, err := types.ParseMonthRange(spec)
	if err != nil {
		tb.Fatal(err)
	}
	var n int64
	for _, si := range man.Segments {
		if si.Month >= from && si.Month <= to {
			n++
		}
	}
	return n
}

// get performs a GET and returns status and body.
func get(tb testing.TB, h http.Handler, url string) (int, string) {
	tb.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	return rec.Code, rec.Body.String()
}

// TestArtifactFormatsConsistent: the same artifact fetched as JSON, CSV
// and text carries the same values — the acceptance criterion of the
// artifact model (one value, three encodings).
func TestArtifactFormatsConsistent(t *testing.T) {
	srv := newServer(t, 4, nil)

	code, jsonBody := get(t, srv, "/v1/artifact/fig3?format=json")
	if code != http.StatusOK {
		t.Fatalf("json status %d: %s", code, jsonBody)
	}
	var art struct {
		Name    string `json:"name"`
		Columns []struct {
			Name string `json:"name"`
			Kind string `json:"kind"`
		} `json:"columns"`
		Rows [][]any `json:"rows"`
	}
	if err := json.Unmarshal([]byte(jsonBody), &art); err != nil {
		t.Fatal(err)
	}
	if art.Name != "fig3" || len(art.Rows) == 0 {
		t.Fatalf("bad artifact: name=%q rows=%d", art.Name, len(art.Rows))
	}
	if art.Columns[0].Kind != "month" || art.Columns[1].Kind != "int" {
		t.Errorf("schema kinds = %v", art.Columns)
	}

	code, csvBody := get(t, srv, "/v1/artifact/fig3?format=csv")
	if code != http.StatusOK {
		t.Fatalf("csv status %d", code)
	}
	records, err := csv.NewReader(strings.NewReader(csvBody)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records)-1 != len(art.Rows) {
		t.Fatalf("csv rows = %d, json rows = %d", len(records)-1, len(art.Rows))
	}
	for i, row := range art.Rows {
		rec := records[i+1]
		if rec[0] != row[0].(string) {
			t.Errorf("row %d month: csv %q json %v", i, rec[0], row[0])
		}
		if want := fmt.Sprintf("%d", int64(row[1].(float64))); rec[1] != want {
			t.Errorf("row %d flashbots_blocks: csv %q json %v", i, rec[1], want)
		}
	}

	code, textBody := get(t, srv, "/v1/artifact/fig3?format=text")
	if code != http.StatusOK {
		t.Fatalf("text status %d", code)
	}
	for _, row := range art.Rows {
		if !strings.Contains(textBody, row[0].(string)) {
			t.Errorf("text missing month %v", row[0])
		}
	}
}

// TestMonthRangeSlicing: a months= query restores only those segments
// and the per-month values match the full-archive analysis.
func TestMonthRangeSlicing(t *testing.T) {
	srv := newServer(t, 4, nil)
	fetch := func(url string) [][]any {
		code, body := get(t, srv, url)
		if code != http.StatusOK {
			t.Fatalf("%s → %d: %s", url, code, body)
		}
		var art struct {
			Rows [][]any `json:"rows"`
		}
		if err := json.Unmarshal([]byte(body), &art); err != nil {
			t.Fatal(err)
		}
		return art.Rows
	}
	full := fetch("/v1/artifact/fig3?format=json")
	sliced := fetch("/v1/artifact/fig3?format=json&months=2021-03..2021-06")
	if len(sliced) != 4 {
		t.Fatalf("sliced rows = %d, want 4", len(sliced))
	}
	if sliced[0][0] != "3/2021" || sliced[3][0] != "6/2021" {
		t.Fatalf("sliced months = %v..%v", sliced[0][0], sliced[3][0])
	}
	byMonth := map[string][]any{}
	for _, row := range full {
		byMonth[row[0].(string)] = row
	}
	for _, row := range sliced {
		want := byMonth[row[0].(string)]
		if want == nil {
			t.Fatalf("month %v missing from full report", row[0])
		}
		if row[1] != want[1] || row[2] != want[2] {
			t.Errorf("month %v: sliced %v/%v, full %v/%v", row[0], row[1], row[2], want[1], want[2])
		}
	}
}

// TestCacheHitsSkipAnalyze: repeated queries for one slice build once,
// analyzing each archived month once; a different slice is a new key
// whose build merges the already-analyzed months; the listing and
// report endpoints share the same cached report.
func TestCacheHitsSkipAnalyze(t *testing.T) {
	var calls atomic.Int64
	srv := newServer(t, 4, &calls)
	months := archivedMonths(t, testArchive(t), "")

	for i := 0; i < 3; i++ {
		if code, body := get(t, srv, "/v1/report?format=text"); code != http.StatusOK {
			t.Fatalf("status %d: %s", code, body)
		}
	}
	if got, n := calls.Load(), builds(t, srv); got != months || n != 1 {
		t.Fatalf("after 3 identical queries: %d month analyses in %d builds, want %d in 1", got, n, months)
	}
	get(t, srv, "/v1/artifact/table1?format=json")
	get(t, srv, "/v1/artifacts")
	if got, n := calls.Load(), builds(t, srv); got != months || n != 1 {
		t.Fatalf("after artifact+listing: %d month analyses in %d builds, want %d in 1 (shared cache)", got, n, months)
	}
	get(t, srv, "/v1/artifact/fig3?months=2021-03..2021-06")
	if got, n := calls.Load(), builds(t, srv); got != months || n != 2 {
		t.Fatalf("after new slice: %d month analyses in %d builds, want %d in 2 (its months are cached)", got, n, months)
	}
	st := srv.CacheStats()
	if st.Hits < 4 || st.Misses != 2 {
		t.Errorf("cache stats = %+v", st)
	}
}

// TestLRUEviction: with capacity 1, alternating slices evict each other
// and rebuild — from cached month partials, so each month is still
// analyzed once.
func TestLRUEviction(t *testing.T) {
	var calls atomic.Int64
	srv := newServer(t, 1, &calls)
	a := "/v1/artifact/fig3?months=2021-03..2021-04"
	b := "/v1/artifact/fig3?months=2021-05..2021-06"
	get(t, srv, a)
	get(t, srv, b)
	get(t, srv, a)
	if n := builds(t, srv); n != 3 {
		t.Fatalf("report builds = %d, want 3 (capacity-1 LRU thrashes)", n)
	}
	if got := calls.Load(); got != 4 {
		t.Fatalf("month analyses = %d, want 4 (each month once; the rebuild merges cached partials)", got)
	}
	if st := srv.CacheStats(); st.Evictions < 2 {
		t.Errorf("evictions = %d, want ≥ 2", st.Evictions)
	}
}

// TestConcurrentMissesAnalyzeOnce: a burst of concurrent requests for a
// cold key runs one build, analyzing each archived month once; the rest
// wait for it (in-flight dedup).
func TestConcurrentMissesAnalyzeOnce(t *testing.T) {
	var calls atomic.Int64
	srv := newServer(t, 4, &calls)
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/artifact/table1", nil))
			if rec.Code != http.StatusOK {
				errs <- fmt.Sprintf("status %d", rec.Code)
			}
			if _, err := io.Copy(io.Discard, rec.Body); err != nil {
				errs <- err.Error()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	months := archivedMonths(t, testArchive(t), "")
	if got, n := calls.Load(), builds(t, srv); got != months || n != 1 {
		t.Fatalf("concurrent burst: %d month analyses in %d builds, want %d in 1", got, n, months)
	}
}

// TestLiveSource: a registered live snapshot serves through the same
// endpoints; the cache key carries the height, so one height is cached
// (Snapshot runs once per height) and a new height re-snapshots.
func TestLiveSource(t *testing.T) {
	srv := newServer(t, 4, nil)
	var height atomic.Uint64
	var snapshots atomic.Int64
	height.Store(10)
	srv.SetLive(query.Live{
		Height: func() uint64 { return height.Load() },
		Snapshot: func() (*measure.Report, uint64) {
			snapshots.Add(1)
			r := &measure.Report{}
			r.Table1.Total.Strategy = "Total"
			return r, height.Load()
		},
	})
	code, body := get(t, srv, "/v1/artifact/table1?source=live&format=json")
	if code != http.StatusOK {
		t.Fatalf("live status %d: %s", code, body)
	}
	if !strings.Contains(body, "Total") {
		t.Errorf("live artifact body: %s", body)
	}
	get(t, srv, "/v1/artifact/table1?source=live&format=json")
	st := srv.CacheStats()
	if st.Hits < 1 {
		t.Errorf("repeated live query at one height should hit the cache: %+v", st)
	}
	if got := snapshots.Load(); got != 1 {
		t.Errorf("snapshots at one height = %d, want 1 (cache must absorb repeats)", got)
	}
	height.Store(11)
	if code, _ := get(t, srv, "/v1/artifact/table1?source=live&format=json"); code != http.StatusOK {
		t.Fatal("live query after height change failed")
	}
	if got := snapshots.Load(); got != 2 {
		t.Errorf("new height should re-snapshot: snapshots = %d", got)
	}
	if code, _ := get(t, srv, "/v1/artifact/table1?source=live&months=2021-03"); code != http.StatusBadRequest {
		t.Error("months + live should be rejected")
	}
}

// TestErrors: the API's failure modes map to the right status codes.
func TestErrors(t *testing.T) {
	srv := newServer(t, 4, nil)
	cases := []struct {
		url  string
		code int
	}{
		{"/v1/artifact/nope", http.StatusNotFound},
		{"/v1/artifact/fig3?format=yaml", http.StatusBadRequest},
		{"/v1/artifact/fig3?months=2019-01..2021-06", http.StatusBadRequest},
		{"/v1/artifact/fig3?months=2021-06..2021-03", http.StatusBadRequest},
		{"/v1/artifact/fig3?source=ftp", http.StatusBadRequest},
		{"/v1/artifact/table1?source=live", http.StatusNotFound}, // no live source set
		{"/v1/report?format=pdf", http.StatusBadRequest},
	}
	for _, c := range cases {
		if code, body := get(t, srv, c.url); code != c.code {
			t.Errorf("%s → %d (want %d): %s", c.url, code, c.code, strings.TrimSpace(body))
		}
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/report", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST → %d, want 405", rec.Code)
	}
	if code, _ := get(t, srv, "/v1/manifest"); code != http.StatusOK {
		t.Error("manifest endpoint failed")
	}
	if code, _ := get(t, srv, "/v1/cache"); code != http.StatusOK {
		t.Error("cache endpoint failed")
	}
}

// TestNewRequiresAnalyzePartial: every archive report is assembled from
// month partials, so a server without the month analysis is a
// configuration error — even one that sets the deprecated Analyze.
func TestNewRequiresAnalyzePartial(t *testing.T) {
	full := func(*dataset.Dataset, int, *obs.Span) (*measure.Report, error) { return &measure.Report{}, nil }
	for _, cfg := range []query.Config{{}, {Archive: testArchive(t), Analyze: full}} {
		if _, err := query.New(cfg); err == nil || !strings.Contains(err.Error(), "AnalyzePartial") {
			t.Errorf("New(%+v) = %v, want an error naming AnalyzePartial", cfg, err)
		}
	}
}

// TestNoArchiveLiveOnly: a server with no archive still serves its live
// source, and archive queries 404.
func TestNoArchiveLiveOnly(t *testing.T) {
	srv, err := query.New(query.Config{AnalyzePartial: mevscope.AnalyzeDatasetPartial})
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := get(t, srv, "/v1/artifact/table1"); code != http.StatusNotFound {
		t.Error("archive query without archive should 404")
	}
	srv.SetLive(query.Live{
		Height:   func() uint64 { return 1 },
		Snapshot: func() (*measure.Report, uint64) { return &measure.Report{}, 1 },
	})
	if code, _ := get(t, srv, "/v1/artifact/table1?source=live"); code != http.StatusOK {
		t.Error("live query without archive should work")
	}
}

// TestMonthsOutsideArchive: a range that is valid for the study window
// but entirely absent from a truncated archive is a 400, not a 500.
func TestMonthsOutsideArchive(t *testing.T) {
	dir := t.TempDir()
	cfg, err := mevscope.Options{Seed: 3, BlocksPerMonth: 20, Months: 6}.Config()
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := archive.Write(dir, dataset.FromSim(s), nil); err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	srv, err := query.New(query.Config{
		Archive:        dir,
		AnalyzePartial: countingPartial(&calls),
		Workers:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	code, body := get(t, srv, "/v1/artifact/fig3?months=2021-08..2021-10")
	if code != http.StatusBadRequest {
		t.Errorf("out-of-archive months → %d, want 400: %s", code, strings.TrimSpace(body))
	}
	if !strings.Contains(body, "archive's window") {
		t.Errorf("error does not name the archive window: %s", body)
	}
	// A partially overlapping range restores the intersection, and every
	// spelling of the same slice shares one cache key (clamping).
	if code, _ := get(t, srv, "/v1/artifact/fig3?months=2020-09..2021-08"); code != http.StatusOK {
		t.Error("overlapping range should serve the intersection")
	}
	if code, _ := get(t, srv, "/v1/artifact/fig3?months=2020-09..2020-10"); code != http.StatusOK {
		t.Error("clamped spelling failed")
	}
	if n := builds(t, srv); n != 1 {
		t.Errorf("report builds = %d, want 1 (clamped ranges should share one key)", n)
	}
	if got, want := calls.Load(), archivedMonths(t, dir, "2020-09..2021-08"); got != want {
		t.Errorf("month analyses = %d, want %d (each month of the intersection once)", got, want)
	}
	// Assemble, behind no key resolution, refuses such a range itself
	// with the archive's window, before analyzing anything.
	man, err := archive.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	from, to, err := types.ParseMonthRange("2021-08..2021-10")
	if err != nil {
		t.Fatal(err)
	}
	calls.Store(0)
	if _, err := query.Assemble(dir, man, from, to, "", countingPartial(&calls), 1, nil); err == nil ||
		!strings.Contains(err.Error(), "2020-05..2020-10") || calls.Load() != 0 {
		t.Errorf("Assemble of months outside the archive: err %v after %d month analyses, want an error naming 2020-05..2020-10 and none",
			err, calls.Load())
	}
}

// blockBodies maps each of the given block numbers of the archive at dir
// to its /v1/block body: the full restore's block (archive.Read),
// encoded as the server encodes it.
func blockBodies(tb testing.TB, dir string, nums []uint64) map[uint64]string {
	tb.Helper()
	restored, _, err := archive.Read(dir)
	if err != nil {
		tb.Fatal(err)
	}
	out := map[uint64]string{}
	for _, n := range nums {
		b, err := restored.Chain.ByNumber(n)
		if err != nil {
			tb.Fatal(err)
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(b); err != nil {
			tb.Fatal(err)
		}
		out[n] = buf.String()
	}
	return out
}

// TestSegmentCacheSharesOverlap: overlapping month ranges are distinct
// report-cache keys (both build), but the months they share are analyzed
// once: the shifted range analyzes only its one new month. Report
// builds leave the month level behind /v1/block alone, and /v1/cache
// exposes all three levels.
func TestSegmentCacheSharesOverlap(t *testing.T) {
	var calls atomic.Int64
	srv := newServer(t, 8, &calls)
	if code, body := get(t, srv, "/v1/artifact/fig3?months=2021-11..2022-01"); code != http.StatusOK {
		t.Fatalf("first range failed: %s", body)
	}
	if code, body := get(t, srv, "/v1/artifact/fig3?months=2021-12..2022-02"); code != http.StatusOK {
		t.Fatalf("overlapping range failed: %s", body)
	}
	if n := builds(t, srv); n != 2 {
		t.Fatalf("report builds = %d, want 2 (distinct ranges are distinct reports)", n)
	}
	if got := calls.Load(); got != 4 {
		t.Fatalf("month analyses = %d, want 4 (the shared 2021-12 and 2022-01 analyze once)", got)
	}
	if ps := srv.PartialCacheStats(); ps.Hits != 2 || ps.Misses != 4 {
		t.Errorf("partial cache %+v, want 2 hits (the shared months) and 4 misses", ps)
	}
	// The exact same range again: pure report-cache hit.
	if code, _ := get(t, srv, "/v1/artifact/fig3?months=2021-12..2022-02"); code != http.StatusOK {
		t.Fatal("repeat range failed")
	}
	if got, n := calls.Load(), builds(t, srv); got != 4 || n != 2 {
		t.Errorf("after repeat: %d month analyses in %d builds, want 4 in 2", got, n)
	}
	if st := srv.SegmentCacheStats(); st.Size != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Errorf("report builds touched the month level: %+v", st)
	}
	// Every cache level is visible on the wire.
	code, body := get(t, srv, "/v1/cache")
	if code != http.StatusOK {
		t.Fatal("cache endpoint failed")
	}
	var stats struct {
		Reports  query.CacheStats        `json:"reports"`
		Partials query.PartialCacheStats `json:"partials"`
		Segments query.SegmentCacheStats `json:"segments"`
	}
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatalf("cache endpoint is not the three-level shape: %v\n%s", err, body)
	}
	if stats.Reports.Misses == 0 || stats.Partials != srv.PartialCacheStats() || stats.Segments != srv.SegmentCacheStats() {
		t.Errorf("cache endpoint stats look wrong: %s", body)
	}
}

// TestSegmentCacheEviction: a month level of two months keeps serving
// correct blocks while lookups across three months evict: it holds
// exactly its capacity, every lookup is counted, a month looked up again
// after its eviction is read again, and every body equals the full
// restore's block.
func TestSegmentCacheEviction(t *testing.T) {
	dir := testArchive(t)
	srv, err := query.New(query.Config{
		Archive:          dir,
		AnalyzePartial:   mevscope.AnalyzeDatasetPartial,
		Workers:          1,
		SegmentCacheSize: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	man, err := archive.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The last block of three months, then of the first again, which the
	// third month's lookup evicted.
	segs := man.Segments[:3]
	var nums []uint64
	for _, si := range append(segs, segs[0]) {
		nums = append(nums, si.LastBlock)
	}
	want := blockBodies(t, dir, nums)
	for _, n := range nums {
		if code, got := get(t, srv, fmt.Sprintf("/v1/block?number=%d", n)); code != http.StatusOK || got != want[n] {
			t.Errorf("block %d → %d, body equal to the full restore's: %v", n, code, got == want[n])
		}
	}
	if st := srv.SegmentCacheStats(); st.Size != 2 || st.Capacity != 2 || st.Hits != 0 || st.Misses != 4 || st.Evictions != 2 {
		t.Errorf("two-month level stats %+v; want size 2, 0 hits, 4 misses, 2 evictions", st)
	}
}

// TestBlockEndpoint: /v1/block serves single blocks without a report
// build, looking each up in its month's sealed blocks through the month
// level, and turns out-of-range or malformed numbers into 404/400, not
// 500. N lookups in one month read the month once: one miss and N−1
// hits. A full-window report leaves the level alone, so a lookup in
// each month afterwards misses once per month not yet looked up in.
func TestBlockEndpoint(t *testing.T) {
	dir := testArchive(t)
	man, err := archive.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	srv, err := query.New(query.Config{
		Archive:        dir,
		AnalyzePartial: countingPartial(&calls),
		Workers:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	seg := man.Segments[len(man.Segments)/2]
	nums := []uint64{seg.FirstBlock, seg.LastBlock, (seg.FirstBlock + seg.LastBlock) / 2, seg.FirstBlock}
	for i, want := range nums {
		status, body := get(t, srv, fmt.Sprintf("/v1/block?number=%d", want))
		if status != http.StatusOK {
			t.Fatalf("block %d → %d: %s", want, status, body)
		}
		var got struct {
			Header struct{ Number uint64 }
		}
		if err := json.Unmarshal([]byte(body), &got); err != nil {
			t.Fatal(err)
		}
		if got.Header.Number != want {
			t.Errorf("asked for block %d, got %d", want, got.Header.Number)
		}
		if st := srv.SegmentCacheStats(); st.Misses != 1 || st.Hits != int64(i) || st.Size != 1 {
			t.Errorf("after %d lookups in %s: month level %+v, want 1 month, 1 miss and %d hits", i+1, seg.Label, st, i)
		}
	}
	if calls.Load() != 0 {
		t.Errorf("block lookups ran the analysis pipeline %d times", calls.Load())
	}
	if status, body := get(t, srv, "/v1/report"); status != http.StatusOK {
		t.Fatalf("full-window report → %d: %s", status, body)
	}
	before := srv.SegmentCacheStats()
	if before.Misses != 1 || before.Hits != int64(len(nums)-1) {
		t.Errorf("a full-window report changed the month level's counters: %+v", before)
	}
	for _, si := range man.Segments {
		if status, _ := get(t, srv, fmt.Sprintf("/v1/block?number=%d", si.FirstBlock)); status != http.StatusOK {
			t.Fatalf("block %d → %d", si.FirstBlock, status)
		}
	}
	months := int64(len(man.Segments))
	if after := srv.SegmentCacheStats(); after.Misses != before.Misses+months-1 || after.Hits != before.Hits+1 ||
		after.Size != len(man.Segments) || after.Bytes <= before.Bytes {
		t.Errorf("a lookup in every month: month level %+v after %+v, want %d more misses, 1 more hit and every month held",
			after, before, months-1)
	}
	if status, _ := get(t, srv, fmt.Sprintf("/v1/block?number=%d", man.Head+1)); status != http.StatusNotFound {
		t.Errorf("past-head block → %d, want 404", status)
	}
	if status, _ := get(t, srv, "/v1/block?number=bogus"); status != http.StatusBadRequest {
		t.Errorf("malformed block number → %d, want 400", status)
	}
	if status, _ := get(t, srv, "/v1/block"); status != http.StatusBadRequest {
		t.Errorf("missing block number → %d, want 400", status)
	}
}

// TestMonthBytesCoverHeap pins the month level's byte accounting to the
// heap: once a lookup in every month of a 1-vantage and a 4-vantage
// archive has filled the level, its bytes must be at least the heap the
// held months retain, and at most half again as much.
func TestMonthBytesCoverHeap(t *testing.T) {
	heap := func() int64 {
		var ms runtime.MemStats
		// Two cycles: the second frees what the first left in sync.Pool
		// victim caches.
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	for _, tc := range []struct{ name, dir string }{
		{"1 vantage", testArchive(t)}, {"4 vantages", multiVantageArchive(t)},
	} {
		man, err := archive.ReadManifest(tc.dir)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := query.New(query.Config{Archive: tc.dir, AnalyzePartial: mevscope.AnalyzeDatasetPartial, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		// The server's own manifest is not month data: load it first.
		if code, body := get(t, srv, "/v1/manifest"); code != http.StatusOK {
			t.Fatalf("%s: manifest → %d: %s", tc.name, code, body)
		}
		before := heap()
		for _, si := range man.Segments {
			if code, body := get(t, srv, fmt.Sprintf("/v1/block?number=%d", si.FirstBlock)); code != http.StatusOK {
				t.Fatalf("%s: block %d → %d: %s", tc.name, si.FirstBlock, code, body)
			}
		}
		retained := heap() - before
		st := srv.SegmentCacheStats()
		if st.Size != len(man.Segments) {
			t.Fatalf("%s: the month level holds %d of %d months", tc.name, st.Size, len(man.Segments))
		}
		ratio := float64(st.Bytes) / float64(retained)
		t.Logf("%s: %d months accounted at %d B, retain %d B (ratio %.3f)", tc.name, st.Size, st.Bytes, retained, ratio)
		if ratio < 1 || ratio > 1.5 {
			t.Errorf("%s: months accounted at %d B but retain %d B of heap (ratio %.2f, want 1..1.5)",
				tc.name, st.Bytes, retained, ratio)
		}
		runtime.KeepAlive(srv)
	}
}

// TestProjectedArtifactMatchesFull: every artifact of a key comes from
// its one report. After a report request for a key, the header-level
// artifacts — fig3, bundles and concentration, in every format — cost
// no month analysis and no report build, and carry the same bytes and
// ETag as on a fresh server, where the first of them builds the key's
// report.
func TestProjectedArtifactMatchesFull(t *testing.T) {
	const months = "2021-01..2021-06"
	var calls atomic.Int64
	warm := newServer(t, 0, &calls)
	if code, body := get(t, warm, "/v1/report?format=text&months="+months); code != http.StatusOK {
		t.Fatalf("report → %d: %s", code, body)
	}
	analyses, reports := calls.Load(), builds(t, warm)
	fresh := newServer(t, 0, nil)
	for _, name := range []string{"fig3", "bundles", "concentration"} {
		for _, format := range []string{"json", "csv", "text"} {
			url := fmt.Sprintf("/v1/artifact/%s?format=%s&months=%s", name, format, months)
			got := getWith(t, warm, http.MethodGet, url, nil)
			want := getWith(t, fresh, http.MethodGet, url, nil)
			if got.Code != http.StatusOK || want.Code != http.StatusOK {
				t.Fatalf("%s → %d after the report, %d on a fresh server", url, got.Code, want.Code)
			}
			if got.Body.String() != want.Body.String() {
				t.Errorf("%s: body differs from a fresh server's", url)
			}
			if tag := got.Header().Get("ETag"); tag == "" || tag != want.Header().Get("ETag") {
				t.Errorf("%s: ETag %q, a fresh server's %q", url, tag, want.Header().Get("ETag"))
			}
		}
	}
	if got := calls.Load() - analyses; got != 0 {
		t.Errorf("artifacts after the report ran %d month analyses, want 0", got)
	}
	if got := builds(t, warm) - reports; got != 0 {
		t.Errorf("artifacts after the report ran %d report builds, want 0", got)
	}
	if got := builds(t, fresh); got != 1 {
		t.Errorf("a fresh server built %d reports for one key's artifacts, want 1", got)
	}
}
