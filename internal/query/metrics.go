package query

// Request metrics: the operational surface of the serving tier. Every
// request through Server.ServeHTTP is classified by endpoint and
// recorded — request count, status class, bytes sent, 304s, and a
// latency observation in a fixed log-scale histogram — then exposed at
// GET /metrics in Prometheus text exposition format (the default, so a
// stock scraper works unconfigured) or as JSON (?format=json, which
// also embeds all three cache levels' counters so one scrape reconciles
// request counts against cache lookups). Everything is plain atomics
// over a fixed endpoint set: no locks on the hot path, no dependencies.
//
// Beyond per-request accounting, the registry carries the flight
// recorder's serving view: every cold report build runs under an
// internal/obs trace, and each stage's wall time lands in a per-stage
// histogram (mevscope_stage_seconds{stage=...}) keyed by the fixed
// obs.MetricStages set plus "total" — the label set is bounded no
// matter what the pipeline does. Go runtime gauges (goroutines, heap
// bytes, GC cycles and pause total) and the live follower's lag in
// blocks round out the exposition, in both formats.

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"mevscope/internal/obs"
)

// Histogram bucket layout: factor-2 upper bounds from 10µs up, plus one
// overflow bucket. 10µs·2^23 ≈ 84s, wide enough for a cold archive
// restore and fine enough that a ~0.3ms cached hit and a ~1s cold build
// land many buckets apart.
const (
	histBase    = 10 * time.Microsecond
	histBuckets = 24
)

// Histogram is a concurrency-safe streaming latency histogram over
// fixed log-scale buckets. The zero value is ready to use; Observe is
// lock-free (atomics only), so it sits on the request hot path and in
// cmd/loadgen's per-request accounting without serializing clients.
type Histogram struct {
	counts [histBuckets + 1]atomic.Int64
	sum    atomic.Int64 // nanoseconds
	n      atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketOf(d)].Add(1)
	h.sum.Add(int64(d))
	h.n.Add(1)
}

// bucketOf maps a duration to its bucket index (the first bucket whose
// upper bound is ≥ d; durations beyond the last bound overflow).
func bucketOf(d time.Duration) int {
	ub := histBase
	for i := 0; i < histBuckets; i++ {
		if d <= ub {
			return i
		}
		ub *= 2
	}
	return histBuckets
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Mean returns the mean observed duration (0 when empty).
func (h *Histogram) Mean() time.Duration {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Quantile returns the q-th quantile (0 < q ≤ 1), linearly interpolated
// within the bucket the rank falls in; observations past the last bound
// report that bound. With factor-2 buckets the answer is exact to within
// 2× — the right fidelity for p50/p99 trend lines at zero allocation.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.n.Load()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	lo, ub := time.Duration(0), histBase
	for i := 0; i <= histBuckets; i++ {
		n := h.counts[i].Load()
		if cum+n >= rank {
			if i == histBuckets {
				return lo // overflow: report the last finite bound
			}
			frac := float64(rank-cum) / float64(n)
			return lo + time.Duration(frac*float64(ub-lo))
		}
		cum += n
		lo, ub = ub, ub*2
	}
	return lo
}

// buckets snapshots the per-bucket counts (not cumulative).
func (h *Histogram) buckets() [histBuckets + 1]int64 {
	var out [histBuckets + 1]int64
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// endpointLabels is the fixed classification of request paths; every
// path outside the API maps to "other" so the metric label set is
// bounded no matter what clients probe.
var endpointLabels = []string{
	"/v1/artifacts", "/v1/artifact", "/v1/report", "/v1/manifest", "/v1/block", "/v1/cache", "/metrics", "/debug/pprof", "other",
}

// endpointLabel classifies one request path.
func endpointLabel(path string) string {
	if strings.HasPrefix(path, "/v1/artifact/") {
		return "/v1/artifact"
	}
	if strings.HasPrefix(path, "/debug/pprof") {
		return "/debug/pprof"
	}
	switch path {
	case "/v1/artifacts", "/v1/report", "/v1/manifest", "/v1/block", "/v1/cache", "/metrics":
		return path
	}
	return "other"
}

// endpointMetrics is one endpoint's counters.
type endpointMetrics struct {
	requests    atomic.Int64
	classes     [5]atomic.Int64 // status/100 - 1: 1xx..5xx
	notModified atomic.Int64
	bytes       atomic.Int64
	latency     Histogram
}

// stageTotal is the pseudo-stage recording whole cold builds (the
// trace's root span), alongside the per-stage entries.
const stageTotal = "total"

// stageLabels is the fixed, bounded label set of the per-stage build
// histograms: the pipeline stages that feed serving builds, plus the
// whole-build total.
func stageLabels() []string { return append(obs.MetricStages(), stageTotal) }

// metrics is the server-wide registry: read-only maps over fixed
// endpoint and stage sets, so recording never takes a lock.
type metrics struct {
	endpoints map[string]*endpointMetrics
	stages    map[string]*Histogram
}

func newMetrics() *metrics {
	m := &metrics{
		endpoints: make(map[string]*endpointMetrics, len(endpointLabels)),
		stages:    make(map[string]*Histogram),
	}
	for _, l := range endpointLabels {
		m.endpoints[l] = &endpointMetrics{}
	}
	for _, st := range stageLabels() {
		m.stages[st] = &Histogram{}
	}
	return m
}

// observeTrace folds one finished cold-build trace into the per-stage
// histograms: every span whose stage is in the bounded label set
// contributes its wall time, and the root span lands in "total". Spans
// outside the set (per-artifact children, sim stages) are skipped, so
// the label set never grows. Nil-safe on both sides.
func (m *metrics) observeTrace(tr *obs.Trace) {
	if m == nil || tr == nil {
		return
	}
	root := tr.Root()
	for _, sp := range tr.Spans() {
		if sp == root {
			m.stages[stageTotal].Observe(sp.Duration())
			continue
		}
		if h, ok := m.stages[sp.Name()]; ok {
			h.Observe(sp.Duration())
		}
	}
}

// record accounts one finished request.
func (m *metrics) record(path string, status int, bytes int64, d time.Duration) {
	e := m.endpoints[endpointLabel(path)]
	e.requests.Add(1)
	if c := status/100 - 1; c >= 0 && c < len(e.classes) {
		e.classes[c].Add(1)
	}
	if status == http.StatusNotModified {
		e.notModified.Add(1)
	}
	e.bytes.Add(bytes)
	e.latency.Observe(d)
}

// LatencySummary is the histogram's JSON rendering: count, mean and the
// headline quantiles, in milliseconds.
type LatencySummary struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean_ms"`
	P50   float64 `json:"p50_ms"`
	P90   float64 `json:"p90_ms"`
	P99   float64 `json:"p99_ms"`
}

// EndpointMetrics is one endpoint's counters, snapshotted for JSON.
type EndpointMetrics struct {
	Requests    int64            `json:"requests"`
	Status      map[string]int64 `json:"status,omitempty"`
	NotModified int64            `json:"not_modified,omitempty"`
	Bytes       int64            `json:"bytes"`
	Latency     LatencySummary   `json:"latency"`
}

// StageMetrics is one pipeline stage's build-time summary for JSON:
// how many cold builds touched the stage and how its wall time
// distributes, in seconds (stage builds live on a much coarser scale
// than request latencies).
type StageMetrics struct {
	Count  int64   `json:"count"`
	MeanS  float64 `json:"mean_s"`
	P50S   float64 `json:"p50_s"`
	P99S   float64 `json:"p99_s"`
	TotalS float64 `json:"total_s"`
}

// RuntimeMetrics is the Go runtime's health snapshot: live goroutines,
// heap in use, and the garbage collector's cycle and cumulative pause
// counters.
type RuntimeMetrics struct {
	Goroutines     int     `json:"goroutines"`
	HeapAllocBytes uint64  `json:"heap_alloc_bytes"`
	GCCycles       uint32  `json:"gc_cycles"`
	GCPauseSeconds float64 `json:"gc_pause_seconds"`
}

// runtimeMetrics samples the runtime. ReadMemStats costs a brief
// stop-the-world, which is fine at scrape frequency.
func runtimeMetrics() RuntimeMetrics {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return RuntimeMetrics{
		Goroutines:     runtime.NumGoroutine(),
		HeapAllocBytes: ms.HeapAlloc,
		GCCycles:       ms.NumGC,
		GCPauseSeconds: time.Duration(ms.PauseTotalNs).Seconds(),
	}
}

// MetricsSnapshot is the /metrics?format=json document: per-endpoint
// request metrics, per-stage cold-build histograms, the Go runtime
// gauges, the live follower's lag when one is attached, and all three
// cache levels, so hit/miss counters can be reconciled against request
// counts in one read.
type MetricsSnapshot struct {
	Endpoints map[string]EndpointMetrics `json:"endpoints"`
	Stages    map[string]StageMetrics    `json:"stages,omitempty"`
	Runtime   RuntimeMetrics             `json:"runtime"`
	LiveLag   *uint64                    `json:"live_lag_blocks,omitempty"`
	Caches    struct {
		Reports  CacheStats        `json:"reports"`
		Partials PartialCacheStats `json:"partials"`
		Segments SegmentCacheStats `json:"segments"`
	} `json:"caches"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// MetricsSnapshot builds the JSON view of the registry; endpoints that
// saw no traffic are omitted. The second return is false when metrics
// are disabled (Config.DisableMetrics).
func (s *Server) MetricsSnapshot() (MetricsSnapshot, bool) {
	if s.metrics == nil {
		return MetricsSnapshot{}, false
	}
	out := MetricsSnapshot{Endpoints: make(map[string]EndpointMetrics)}
	for _, label := range endpointLabels {
		e := s.metrics.endpoints[label]
		n := e.requests.Load()
		if n == 0 {
			continue
		}
		em := EndpointMetrics{
			Requests:    n,
			NotModified: e.notModified.Load(),
			Bytes:       e.bytes.Load(),
			Status:      make(map[string]int64),
			Latency: LatencySummary{
				Count: e.latency.Count(),
				Mean:  ms(e.latency.Mean()),
				P50:   ms(e.latency.Quantile(0.50)),
				P90:   ms(e.latency.Quantile(0.90)),
				P99:   ms(e.latency.Quantile(0.99)),
			},
		}
		for c := range e.classes {
			if v := e.classes[c].Load(); v > 0 {
				em.Status[fmt.Sprintf("%dxx", c+1)] = v
			}
		}
		out.Endpoints[label] = em
	}
	for _, st := range stageLabels() {
		h := s.metrics.stages[st]
		n := h.Count()
		if n == 0 {
			continue
		}
		if out.Stages == nil {
			out.Stages = make(map[string]StageMetrics)
		}
		out.Stages[st] = StageMetrics{
			Count:  n,
			MeanS:  h.Mean().Seconds(),
			P50S:   h.Quantile(0.50).Seconds(),
			P99S:   h.Quantile(0.99).Seconds(),
			TotalS: time.Duration(h.sum.Load()).Seconds(),
		}
	}
	out.Runtime = runtimeMetrics()
	if lag, ok := s.liveLag(); ok {
		out.LiveLag = &lag
	}
	out.Caches.Reports = s.CacheStats()
	out.Caches.Partials = s.PartialCacheStats()
	out.Caches.Segments = s.SegmentCacheStats()
	return out, true
}

// liveLag reads the registered live source's lag; false when no live
// source (or no lag probe) is attached.
func (s *Server) liveLag() (uint64, bool) {
	s.mu.Lock()
	live := s.live
	s.mu.Unlock()
	if live == nil || live.Lag == nil {
		return 0, false
	}
	return live.Lag(), true
}

// handleMetrics serves the registry: Prometheus text exposition by
// default (a stock scraper needs no configuration), JSON with
// ?format=json.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.metrics == nil {
		fail(w, &httpError{http.StatusNotFound, "query: metrics disabled"})
		return
	}
	switch r.URL.Query().Get("format") {
	case "", "prometheus", "prom":
		respond(w, "text/plain; version=0.0.4; charset=utf-8", "", func(w io.Writer) error {
			return s.writePrometheus(w)
		})
	case "json":
		snap, _ := s.MetricsSnapshot()
		writeJSON(w, snap)
	default:
		fail(w, errBadRequest("query: unknown format %q (want prometheus or json)", r.URL.Query().Get("format")))
	}
}

// writePrometheus renders the registry in the text exposition format:
// request/byte/304 counters by endpoint and status class, the latency
// histogram with cumulative le-labelled buckets, per-stage cold-build
// histograms, the Go runtime gauges, the live lag gauge when a live
// source is attached, and all three cache levels.
func (s *Server) writePrometheus(w io.Writer) error {
	active := make([]string, 0, len(endpointLabels))
	for _, l := range endpointLabels {
		if s.metrics.endpoints[l].requests.Load() > 0 {
			active = append(active, l)
		}
	}
	sort.Strings(active)

	p := func(format string, args ...any) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	if err := p("# HELP mevscope_http_requests_total Requests by endpoint and status class.\n# TYPE mevscope_http_requests_total counter\n"); err != nil {
		return err
	}
	for _, l := range active {
		e := s.metrics.endpoints[l]
		for c := range e.classes {
			if v := e.classes[c].Load(); v > 0 {
				if err := p("mevscope_http_requests_total{endpoint=%q,class=\"%dxx\"} %d\n", l, c+1, v); err != nil {
					return err
				}
			}
		}
	}
	if err := p("# HELP mevscope_http_response_bytes_total Body bytes sent by endpoint.\n# TYPE mevscope_http_response_bytes_total counter\n"); err != nil {
		return err
	}
	for _, l := range active {
		if err := p("mevscope_http_response_bytes_total{endpoint=%q} %d\n", l, s.metrics.endpoints[l].bytes.Load()); err != nil {
			return err
		}
	}
	if err := p("# HELP mevscope_http_not_modified_total Conditional GETs answered 304 without re-encoding.\n# TYPE mevscope_http_not_modified_total counter\n"); err != nil {
		return err
	}
	for _, l := range active {
		if err := p("mevscope_http_not_modified_total{endpoint=%q} %d\n", l, s.metrics.endpoints[l].notModified.Load()); err != nil {
			return err
		}
	}
	if err := p("# HELP mevscope_http_request_seconds Request latency by endpoint.\n# TYPE mevscope_http_request_seconds histogram\n"); err != nil {
		return err
	}
	for _, l := range active {
		e := s.metrics.endpoints[l]
		counts := e.latency.buckets()
		var cum int64
		ub := histBase
		for i := 0; i < histBuckets; i++ {
			cum += counts[i]
			le := strconv.FormatFloat(ub.Seconds(), 'g', -1, 64)
			if err := p("mevscope_http_request_seconds_bucket{endpoint=%q,le=%q} %d\n", l, le, cum); err != nil {
				return err
			}
			ub *= 2
		}
		cum += counts[histBuckets]
		if err := p("mevscope_http_request_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", l, cum); err != nil {
			return err
		}
		if err := p("mevscope_http_request_seconds_sum{endpoint=%q} %g\n", l, time.Duration(e.latency.sum.Load()).Seconds()); err != nil {
			return err
		}
		if err := p("mevscope_http_request_seconds_count{endpoint=%q} %d\n", l, e.latency.Count()); err != nil {
			return err
		}
	}
	if err := p("# HELP mevscope_stage_seconds Cold report build wall time by pipeline stage.\n# TYPE mevscope_stage_seconds histogram\n"); err != nil {
		return err
	}
	for _, st := range stageLabels() {
		h := s.metrics.stages[st]
		counts := h.buckets()
		var cum int64
		if h.Count() == 0 {
			continue
		}
		ub := histBase
		for i := 0; i < histBuckets; i++ {
			cum += counts[i]
			le := strconv.FormatFloat(ub.Seconds(), 'g', -1, 64)
			if err := p("mevscope_stage_seconds_bucket{stage=%q,le=%q} %d\n", st, le, cum); err != nil {
				return err
			}
			ub *= 2
		}
		cum += counts[histBuckets]
		if err := p("mevscope_stage_seconds_bucket{stage=%q,le=\"+Inf\"} %d\n", st, cum); err != nil {
			return err
		}
		if err := p("mevscope_stage_seconds_sum{stage=%q} %g\n", st, time.Duration(h.sum.Load()).Seconds()); err != nil {
			return err
		}
		if err := p("mevscope_stage_seconds_count{stage=%q} %d\n", st, h.Count()); err != nil {
			return err
		}
	}
	rt := runtimeMetrics()
	if err := p("# HELP mevscope_go_goroutines Live goroutines.\n# TYPE mevscope_go_goroutines gauge\nmevscope_go_goroutines %d\n", rt.Goroutines); err != nil {
		return err
	}
	if err := p("# HELP mevscope_go_heap_alloc_bytes Heap bytes in use.\n# TYPE mevscope_go_heap_alloc_bytes gauge\nmevscope_go_heap_alloc_bytes %d\n", rt.HeapAllocBytes); err != nil {
		return err
	}
	if err := p("# HELP mevscope_go_gc_cycles_total Completed GC cycles.\n# TYPE mevscope_go_gc_cycles_total counter\nmevscope_go_gc_cycles_total %d\n", rt.GCCycles); err != nil {
		return err
	}
	if err := p("# HELP mevscope_go_gc_pause_seconds_total Cumulative GC stop-the-world pause.\n# TYPE mevscope_go_gc_pause_seconds_total counter\nmevscope_go_gc_pause_seconds_total %g\n", rt.GCPauseSeconds); err != nil {
		return err
	}
	if lag, ok := s.liveLag(); ok {
		if err := p("# HELP mevscope_live_lag_blocks Blocks the live follower trails the world tip.\n# TYPE mevscope_live_lag_blocks gauge\nmevscope_live_lag_blocks %d\n", lag); err != nil {
			return err
		}
	}
	caches := []struct {
		name string
		st   levelStats
	}{{"reports", s.reports.stats()}, {"partials", s.partials.stats()}, {"segments", s.months.stats()}}
	if err := p("# HELP mevscope_cache_hits_total Cache hits by level.\n# TYPE mevscope_cache_hits_total counter\n"); err != nil {
		return err
	}
	for _, c := range caches {
		if err := p("mevscope_cache_hits_total{cache=%q} %d\n", c.name, c.st.hits); err != nil {
			return err
		}
	}
	if err := p("# HELP mevscope_cache_misses_total Cache misses by level.\n# TYPE mevscope_cache_misses_total counter\n"); err != nil {
		return err
	}
	for _, c := range caches {
		if err := p("mevscope_cache_misses_total{cache=%q} %d\n", c.name, c.st.misses); err != nil {
			return err
		}
	}
	if err := p("# HELP mevscope_cache_evictions_total Cache evictions by level.\n# TYPE mevscope_cache_evictions_total counter\n"); err != nil {
		return err
	}
	for _, c := range caches {
		if err := p("mevscope_cache_evictions_total{cache=%q} %d\n", c.name, c.st.evictions); err != nil {
			return err
		}
	}
	if err := p("# HELP mevscope_cache_size Entries held by cache level.\n# TYPE mevscope_cache_size gauge\n"); err != nil {
		return err
	}
	for _, c := range caches {
		if err := p("mevscope_cache_size{cache=%q} %d\n", c.name, c.st.size); err != nil {
			return err
		}
	}
	if err := p("# HELP mevscope_cache_bytes Resident bytes held by the byte-accounted cache levels.\n# TYPE mevscope_cache_bytes gauge\n"); err != nil {
		return err
	}
	for _, c := range caches[1:] { // reports are not byte-accounted
		if err := p("mevscope_cache_bytes{cache=%q} %d\n", c.name, c.st.bytes); err != nil {
			return err
		}
	}
	return nil
}
