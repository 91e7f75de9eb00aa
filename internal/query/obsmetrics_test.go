package query_test

// Serving-side flight-recorder surfaces: per-stage build histograms fed
// by the cold path's trace, Go runtime gauges, the opt-in pprof mount
// and the live follower's lag gauge.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"mevscope"
	"mevscope/internal/core/measure"
	"mevscope/internal/query"
)

// TestStageMetrics: one cold artifact build records every pipeline
// stage — restore and decode on the archive side, detect/profit/
// aggregate/build in the measurement core, one analyze:partial per
// month — plus the whole-build "total", in both expositions; a cache
// hit adds nothing.
func TestStageMetrics(t *testing.T) {
	srv := newServer(t, 4, nil)

	if rec := getWith(t, srv, http.MethodGet, "/v1/artifact/fig3?format=json", nil); rec.Code != http.StatusOK {
		t.Fatalf("seed request failed: %d: %s", rec.Code, rec.Body.String())
	}
	snap, ok := srv.MetricsSnapshot()
	if !ok {
		t.Fatal("metrics disabled on a default server")
	}
	for _, st := range []string{"total", "archive:restore", "archive:decode", "detect", "profit", "aggregate", "build", "analyze:partial"} {
		sm, present := snap.Stages[st]
		if !present || sm.Count == 0 {
			t.Errorf("stage %q missing from snapshot after a cold build: %+v", st, snap.Stages)
		}
	}
	if tot := snap.Stages["total"]; tot.Count != 1 {
		t.Errorf("total builds = %d, want 1", tot.Count)
	}
	if snap.Runtime.Goroutines <= 0 || snap.Runtime.HeapAllocBytes == 0 {
		t.Errorf("runtime gauges look unset: %+v", snap.Runtime)
	}
	if snap.LiveLag != nil {
		t.Errorf("live lag = %v with no live source attached", *snap.LiveLag)
	}

	// Each archived month is analyzed once, detect running per month.
	months := archivedMonths(t, testArchive(t), "")
	if pm := snap.Stages["analyze:partial"]; pm.Count != months {
		t.Errorf("month partials = %d, want %d", pm.Count, months)
	}

	prom := getWith(t, srv, http.MethodGet, "/metrics", nil)
	body := prom.Body.String()
	for _, want := range []string{
		`# TYPE mevscope_stage_seconds histogram`,
		`mevscope_stage_seconds_count{stage="total"} 1`,
		fmt.Sprintf(`mevscope_stage_seconds_bucket{stage="detect",le="+Inf"} %d`, months),
		`mevscope_stage_seconds_sum{stage="build"}`,
		`mevscope_go_goroutines`,
		`mevscope_go_heap_alloc_bytes`,
		`mevscope_go_gc_cycles_total`,
		`mevscope_go_gc_pause_seconds_total`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
	if strings.Contains(body, "mevscope_live_lag_blocks") {
		t.Error("live lag gauge exposed with no live source attached")
	}

	// A warm repeat is served from the report cache: no build, no new
	// stage observations.
	if rec := getWith(t, srv, http.MethodGet, "/v1/artifact/fig3?format=json", nil); rec.Code != http.StatusOK {
		t.Fatalf("warm request failed: %d", rec.Code)
	}
	snap, _ = srv.MetricsSnapshot()
	if tot := snap.Stages["total"]; tot.Count != 1 {
		t.Errorf("cache hit grew the build histogram: total count = %d, want 1", tot.Count)
	}
}

// TestLiveLagGauge: a live source with a Lag probe surfaces the blocks-
// behind gauge in both formats.
func TestLiveLagGauge(t *testing.T) {
	srv := newServer(t, 4, nil)
	srv.SetLive(query.Live{
		Height: func() uint64 { return 10 },
		Snapshot: func() (*measure.Report, uint64) {
			return &measure.Report{}, 10
		},
		Lag: func() uint64 { return 3 },
	})

	rec := getWith(t, srv, http.MethodGet, "/metrics?format=json", nil)
	var snap query.MetricsSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	if snap.LiveLag == nil || *snap.LiveLag != 3 {
		t.Errorf("live_lag_blocks = %v, want 3", snap.LiveLag)
	}

	prom := getWith(t, srv, http.MethodGet, "/metrics", nil)
	if !strings.Contains(prom.Body.String(), "mevscope_live_lag_blocks 3") {
		t.Error("prometheus exposition missing the live lag gauge")
	}
}

// TestPprofOptIn: the profiling surface is absent by default and mounts
// under /debug/pprof/ with Config.EnablePprof; its requests land in a
// single bounded endpoint label.
func TestPprofOptIn(t *testing.T) {
	off := newServer(t, 4, nil)
	if rec := getWith(t, off, http.MethodGet, "/debug/pprof/", nil); rec.Code != http.StatusNotFound {
		t.Errorf("/debug/pprof/ without EnablePprof → %d, want 404", rec.Code)
	}

	on, err := query.New(query.Config{
		Archive:        testArchive(t),
		AnalyzePartial: mevscope.AnalyzeDatasetPartial,
		Workers:        1,
		EnablePprof:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := getWith(t, on, http.MethodGet, "/debug/pprof/", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/pprof/ with EnablePprof → %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "profile") {
		t.Error("pprof index does not list profiles")
	}
	if rec := getWith(t, on, http.MethodGet, "/debug/pprof/cmdline", nil); rec.Code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline → %d", rec.Code)
	}
	snap, _ := on.MetricsSnapshot()
	if ep := snap.Endpoints["/debug/pprof"]; ep.Requests != 2 {
		t.Errorf("pprof endpoint label saw %d requests, want 2", ep.Requests)
	}
}
