package main

import (
	"strings"
	"testing"
	"time"

	"mevscope"
	"mevscope/internal/archive"
	"mevscope/internal/dataset"
	"mevscope/internal/sim"
)

// TestParseConfig: flag validation — exactly one target, sane levels,
// known mix kinds, bounded fractions.
func TestParseConfig(t *testing.T) {
	bad := []struct {
		from, url, clients, mix string
		inm                     float64
		dur                     time.Duration
		want                    string
	}{
		{"", "", "1", "report:1", 0, time.Second, "exactly one of"},
		{"dir", "http://x", "1", "report:1", 0, time.Second, "exactly one of"},
		{"dir", "", "0", "report:1", 0, time.Second, "bad client count"},
		{"dir", "", "1,x", "report:1", 0, time.Second, "bad client count"},
		{"dir", "", "", "report:1", 0, time.Second, "names no levels"},
		{"dir", "", "1", "nope:1", 0, time.Second, "unknown mix kind"},
		{"dir", "", "1", "report", 0, time.Second, "want kind:weight"},
		{"dir", "", "1", "report:0", 0, time.Second, "bad weight"},
		{"dir", "", "1", "", 0, time.Second, "names no queries"},
		{"dir", "", "1", "report:1", 1.5, time.Second, "-inm must be"},
		{"dir", "", "1", "report:1", 0, 0, "-duration must be"},
	}
	for _, c := range bad {
		_, err := parseConfig(c.from, c.url, c.clients, c.mix, c.inm, c.dur, 0, true)
		if err == nil {
			t.Errorf("parseConfig(%q,%q,%q,%q,%g,%v) accepted; want %q", c.from, c.url, c.clients, c.mix, c.inm, c.dur, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("parseConfig error %q does not mention %q", err, c.want)
		}
	}
	if _, err := parseConfig("dir", "", "1", "sliding-window:3,block:1,projected:2", 0, time.Second, 0, true); err != nil {
		t.Errorf("parseConfig rejected the dynamic kinds: %v", err)
	}
	cfg, err := parseConfig("dir", "", "1, 64 ,1024", "artifact:6,report:2", 0.5, time.Second, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.clients) != 3 || cfg.clients[2] != 1024 {
		t.Errorf("clients = %v", cfg.clients)
	}
	if len(cfg.mix) != 2 || cfg.mix[0].weight != 6 {
		t.Errorf("mix = %+v", cfg.mix)
	}
	if len(cfg.urls()) < 5 {
		t.Errorf("warmup URL set = %v, want the artifact rotation plus the report", cfg.urls())
	}
}

// TestRunAgainstArchive: an end-to-end in-process sweep over a small
// archive — every level completes, emits sane numbers, sees zero 5xx,
// and (with -inm 1) the conditional-GET path produces 304s.
func TestRunAgainstArchive(t *testing.T) {
	dir := t.TempDir()
	cfgSim, err := mevscope.Options{Seed: 5, BlocksPerMonth: 20, Months: 4}.Config()
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(cfgSim)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := archive.Write(dir, dataset.FromSim(s), map[string]string{"scenario": "baseline"}); err != nil {
		t.Fatal(err)
	}

	cfg, err := parseConfig(dir, "", "1,2", "artifact:4,report:1,manifest:1", 1.0, 300*time.Millisecond, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	out, err := run(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Levels) != 2 {
		t.Fatalf("levels = %d, want 2", len(out.Levels))
	}
	for _, lvl := range out.Levels {
		if lvl.Requests == 0 || lvl.QPS <= 0 {
			t.Errorf("%d clients: %d requests at %.1f qps", lvl.Clients, lvl.Requests, lvl.QPS)
		}
		if lvl.P99Ms < lvl.P50Ms {
			t.Errorf("%d clients: p99 %.3fms < p50 %.3fms", lvl.Clients, lvl.P99Ms, lvl.P50Ms)
		}
		if lvl.Status["5xx"] != 0 || lvl.Errors != 0 {
			t.Errorf("%d clients: %d 5xx, %d errors under load", lvl.Clients, lvl.Status["5xx"], lvl.Errors)
		}
		if lvl.Status["2xx"]+lvl.Status["3xx"] != lvl.Requests {
			t.Errorf("%d clients: status classes %v do not sum to %d requests", lvl.Clients, lvl.Status, lvl.Requests)
		}
	}
	if out.serverFailures() != 0 {
		t.Errorf("serverFailures = %d", out.serverFailures())
	}
	// Every artifact and report request after warmup carried the captured
	// validator (-inm 1), so a healthy share of the run must be 304s —
	// and 304s carry no body, so bytes/request stays below a full-body
	// run's.
	last := out.Levels[len(out.Levels)-1]
	if last.NotModifiedRatio <= 0 {
		t.Errorf("not_modified_ratio = %g, want > 0 with -inm 1", last.NotModifiedRatio)
	}
	if last.NotModified == 0 {
		t.Error("no 304s despite warm validators on every request")
	}
}

// TestRunSlidingWindowMix drives the dynamic kinds end to end over a
// four-month archive: sliding-window resolves to overlapping month
// windows off the manifest, block resolves to archived point lookups,
// projected adds header-level artifacts of the full-window report — and the
// overlap means the month-partial cache must record hits, which is
// exactly what CI's -require-partial-hits gate asserts.
func TestRunSlidingWindowMix(t *testing.T) {
	dir := t.TempDir()
	cfgSim, err := mevscope.Options{Seed: 5, BlocksPerMonth: 20, Months: 4}.Config()
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(cfgSim)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := archive.Write(dir, dataset.FromSim(s), map[string]string{"scenario": "baseline"}); err != nil {
		t.Fatal(err)
	}

	cfg, err := parseConfig(dir, "", "2", "sliding-window:4,block:1,projected:1", 0, 300*time.Millisecond, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	out, err := run(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Four months at window width three → two overlapping windows.
	if got := len(cfg.kindURLs["sliding-window"]); got != 2 {
		t.Errorf("sliding-window resolved %d windows (%v), want 2", got, cfg.kindURLs["sliding-window"])
	}
	if got := len(cfg.kindURLs["block"]); got != 16 {
		t.Errorf("block resolved %d lookups, want 16", got)
	}
	if out.serverFailures() != 0 {
		t.Fatalf("server failures under the sliding-window mix: %+v", out.Levels)
	}
	if out.PartialCache == nil {
		t.Fatal("BENCH_load output carries no partial_cache block on a partial-wired server")
	}
	if out.PartialCache.Hits == 0 || out.PartialCache.HitRatio <= 0 {
		t.Errorf("partial cache recorded no reuse across overlapping windows: %+v", out.PartialCache)
	}
}
