// Package query is the archive-backed report-serving subsystem behind
// `mevscope serve`: an HTTP API that answers per-artifact requests from a
// segmented archive (internal/archive) without re-simulating — and
// without re-analyzing, once a (archive, month range, scenario) slice is
// warm in the cache.
//
// Request flow: the month range of the URL selects archive segments,
// the measurement pipeline analyzes the slice once, and the resulting
// report is cached in a concurrency-safe LRU keyed by (archive, month
// range, view, scenario). Every artifact of a key is served off that
// one report: repeated queries for any artifact of the same slice — any
// format — skip the pipeline entirely and re-encode the cached report's
// structured artifact model (measure.Artifact). Beneath the report LRU
// sits the partial level: a report miss is assembled from per-month
// partials (Config.AnalyzePartial), cached months come from the partial
// LRU, and the missing months of one build share a single restore of
// the price series and of the observation network through the last
// missing month (archive.RestoreShared), then each reads only its own
// column chunks and is analyzed on the worker pool. Builds keep no
// decoded chunk: each build reads what its missing months need, so once
// every month's partial is cached no build reads the archive. Beside
// them, /v1/block lookups go through an LRU of archived months' sealed
// blocks (archive.ReadBlocks), so each month is assembled once, not once
// per lookup.
//
// The three levels are one type (cache.go): a generic LRU bounded by
// entry count (reports, months) or accounted bytes (partials), whose do
// collapses concurrent misses for one key into one build and turns a
// panicking build into an error for every waiter.
//
// The assembly is the one archive report path: a report-cache miss runs
// it over the server's cache levels, and Assemble, behind `mevscope
// analyze -from`, runs it with none.
//
// One observation network serves every month of a build because of
// month stability: a transaction is never seen pending after it is
// mined, so logs past a month change none of its §6 verdicts, and the
// month's coverage counts are the prefix of the network's per-month
// first-occurrence table through that month (see measure.Partial). The
// shared state lives for one build, never for the server's lifetime.
//
// Endpoints:
//
//	GET /v1/artifacts?months=2021-03..2021-06
//	GET /v1/artifact/{name}?format=json|csv|text&months=2021-03..2021-06&view=union|quorum:K|vantage:N
//	GET /v1/report?format=text|json&months=…&view=…
//	GET /v1/manifest
//	GET /v1/block?number=N
//	GET /v1/cache
//	GET /metrics?format=prometheus|json
//
// The view parameter selects which observation view of a multi-vantage
// archive the §6 inference classifies against (default: the primary
// vantage). Each view caches its own report, but month partials carry
// no view: every view's report merges the same partials, so a view
// first asked for a range another view has analyzed only merges.
//
// Every response body is encoded fully before the first byte is sent:
// Content-Length is always set, a mid-encode failure is a real 500 (not
// a 200 with a truncated body), and HEAD answers with the same headers
// and status as GET at no extra cost. /v1/artifact/* and /v1/report
// responses carry a strong ETag — reports are immutable per (archive,
// month range, view, scenario), so the cache key plus the encoding
// hashes to one for free — and a matching If-None-Match comes back 304
// without re-encoding, and without rebuilding the report even when the
// LRU has evicted it. GET /metrics exposes per-endpoint request counts,
// status classes, bytes sent, 304 counts and a log-bucket latency
// histogram (p50/p90/p99), in Prometheus text exposition format by
// default or as JSON (which also embeds every cache level's counters).
//
// A live source (a streaming follower's snapshot function, see
// Server.SetLive) is served from the same endpoints with ?source=live;
// its cache key carries the snapshot height, so a growing world
// invalidates naturally while repeated queries at one height stay
// cached.
package query

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mevscope/internal/archive"
	"mevscope/internal/core/measure"
	"mevscope/internal/dataset"
	"mevscope/internal/obs"
	"mevscope/internal/parallel"
	"mevscope/internal/types"
)

// AnalyzeFunc runs the measurement pipeline over a restored dataset with
// the given worker-pool size, recording its stages under sp when non-nil
// (internal/obs).
//
// Deprecated: the server assembles every archive report from month
// partials (PartialFunc) and never calls an AnalyzeFunc; the type stays
// only so existing Config literals that set Analyze still compile.
type AnalyzeFunc func(ds *dataset.Dataset, workers int, sp *obs.Span) (*measure.Report, error)

// ProjectionFunc builds a subset of a dataset's report artifacts.
//
// Deprecated: the server serves every artifact of a key off its one
// report and never calls a ProjectionFunc; the type stays only so
// existing Config literals that set AnalyzeProjection still compile.
type ProjectionFunc func(ds *dataset.Dataset, workers int, artifacts []string, sp *obs.Span) (*measure.Report, error)

// PartialFunc analyzes one single-month dataset — a month read against
// its build's shared archive state (archive.Shared.ReadMonth), whose
// observation network may run past the month — into a frozen, mergeable
// month partial. It is called concurrently for the missing months of a
// build. `mevscope serve` wires it to mevscope.AnalyzeDatasetPartial;
// every report-cache miss is served by merging per-month partials,
// computing only the uncached months.
type PartialFunc func(ds *dataset.Dataset, workers int, sp *obs.Span) (*measure.Partial, error)

// Live describes a live source (a streaming follower). Height keys the
// cache and runs on every live request, so it must be cheap; Snapshot
// builds the full report and runs only on a cache miss, returning the
// report together with the height it actually covers (read under the
// same lock, so the pair cannot disagree even while the source grows).
// Both must be safe to call from concurrent requests.
type Live struct {
	Height   func() uint64
	Snapshot func() (*measure.Report, uint64)
	// Lag, when set, reports how many blocks the live source trails the
	// world's tip (0 = fully caught up). Exposed as the
	// mevscope_live_lag_blocks gauge; must be cheap and concurrency-safe.
	Lag func() uint64
}

// Config configures a Server.
type Config struct {
	// Archive is the segmented archive directory to serve; empty when the
	// server only fronts a live source.
	Archive string
	// Analyze is never called.
	//
	// Deprecated: report builds always assemble month partials through
	// AnalyzePartial; setting Analyze has no effect.
	Analyze AnalyzeFunc
	// AnalyzeProjection is never called.
	//
	// Deprecated: every artifact is served off its key's report; setting
	// AnalyzeProjection has no effect.
	AnalyzeProjection ProjectionFunc
	// AnalyzePartial analyzes one month into a mergeable partial; every
	// report-cache miss assembles its report from per-month partials,
	// analyzing only the months no earlier range already analyzed.
	// Required.
	AnalyzePartial PartialFunc
	// PartialCacheBytes bounds the resident size of the partial LRU;
	// 0 selects 256 MiB.
	PartialCacheBytes int64
	// Workers sizes the analysis worker pool (< 1 selects every core):
	// it bounds a partial assembly's fan-out — the missing months of one
	// build run concurrently, with months × per-month workers never
	// exceeding it — and the shared restore's. The merge runs on one
	// worker.
	Workers int
	// CacheSize bounds the report LRU; 0 selects 16 entries.
	CacheSize int
	// SegmentCacheSize bounds the LRU of archived months /v1/block looks
	// blocks up in; 0 selects 256 entries. The unit is one month's sealed
	// blocks, assembled on the month's first lookup. Report builds do not
	// use it.
	SegmentCacheSize int
	// DisableMetrics turns off request accounting and the /metrics
	// endpoint (which then 404s). Metrics are on by default: recording is
	// a handful of atomic adds per request.
	DisableMetrics bool
	// EnablePprof mounts net/http/pprof under /debug/pprof/ — CPU and
	// heap profiles, goroutine dumps, execution traces. Off by default:
	// profiling endpoints are a diagnostic surface, opted into with
	// `mevscope serve -pprof`.
	EnablePprof bool
}

// Server answers artifact queries over one archive (and optionally one
// live source). It is an http.Handler; all state is concurrency-safe.
type Server struct {
	cfg      Config
	reports  *level[Key, *measure.Report]
	partials *level[partialKey, *measure.Partial]
	months   *level[monthKey, []*types.Block]
	mux      *http.ServeMux
	metrics  *metrics // nil when Config.DisableMetrics

	mu   sync.Mutex
	man  *archive.Manifest // lazily loaded
	live *Live
}

// New creates a server over the configured archive.
func New(cfg Config) (*Server, error) {
	if cfg.AnalyzePartial == nil {
		return nil, fmt.Errorf("query: Config.AnalyzePartial is required")
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 16
	}
	if cfg.SegmentCacheSize == 0 {
		cfg.SegmentCacheSize = 256
	}
	if cfg.PartialCacheBytes == 0 {
		cfg.PartialCacheBytes = 256 << 20
	}
	s := &Server{
		cfg:      cfg,
		reports:  newLevel[Key, *measure.Report]("report", max(cfg.CacheSize, 1), 0, nil),
		partials: newLevel[partialKey]("month partial", 0, max(cfg.PartialCacheBytes, 1), (*measure.Partial).SizeBytes),
		months:   newLevel[monthKey]("archived month", max(cfg.SegmentCacheSize, 1), 0, archive.RetainedBytes),
	}
	if !cfg.DisableMetrics {
		s.metrics = newMetrics()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/artifacts", s.handleArtifacts)
	mux.HandleFunc("/v1/artifact/", s.handleArtifact)
	mux.HandleFunc("/v1/report", s.handleReport)
	mux.HandleFunc("/v1/manifest", s.handleManifest)
	mux.HandleFunc("/v1/block", s.handleBlock)
	mux.HandleFunc("/v1/cache", s.handleCache)
	mux.HandleFunc("/metrics", s.handleMetrics)
	if cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.mux = mux
	return s, nil
}

// SetLive registers a live snapshot source, served with ?source=live.
func (s *Server) SetLive(src Live) {
	s.mu.Lock()
	s.live = &src
	s.mu.Unlock()
}

// CacheStats reports the report cache's hit/miss/eviction counters.
func (s *Server) CacheStats() CacheStats { return s.reports.stats().reports() }

// SegmentCacheStats reports the counters of the month level behind
// /v1/block.
func (s *Server) SegmentCacheStats() SegmentCacheStats { return s.months.stats().segments() }

// PartialCacheStats reports the month-partial cache's counters.
func (s *Server) PartialCacheStats() PartialCacheStats { return s.partials.stats().partials() }

// ServeHTTP dispatches to the /v1 API (and /metrics). GET and HEAD are
// the only methods — bodies are buffered, so HEAD is the same handler
// with the body stripped — and a 405 names them in Allow (RFC 9110
// requires the header on every 405). Every request is timed and
// recorded into the metrics registry with the status and body bytes it
// actually sent.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.metrics != nil {
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		defer func() {
			s.metrics.record(r.URL.Path, rec.status, rec.bytes, time.Since(start))
		}()
		w = rec
	}
	switch r.Method {
	case http.MethodGet:
	case http.MethodHead:
		w = &headWriter{w}
	default:
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	s.mux.ServeHTTP(w, r)
}

// statusRecorder captures the status and body byte count a handler
// actually produced, for the metrics registry. It sits inside the HEAD
// body-stripper, so a HEAD response records zero body bytes — what went
// on the wire, not what the handler encoded.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

// headWriter strips the body from a HEAD response: headers and status
// pass through, body writes are swallowed (reported as consumed so
// handlers run unchanged), and the explicit Content-Length the buffered
// write path sets still tells the client how big the GET body would be.
type headWriter struct{ http.ResponseWriter }

func (h *headWriter) Write(p []byte) (int, error) { return len(p), nil }

// httpError is an error with a status code.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

func errBadRequest(format string, args ...any) error {
	return &httpError{http.StatusBadRequest, fmt.Sprintf(format, args...)}
}

// fail writes an error response, mapping httpError codes.
func fail(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	if he, ok := err.(*httpError); ok {
		code = he.code
	}
	http.Error(w, err.Error(), code)
}

// manifest lazily loads (and then reuses) the archive manifest.
func (s *Server) manifest() (*archive.Manifest, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.man != nil {
		return s.man, nil
	}
	if s.cfg.Archive == "" {
		return nil, &httpError{http.StatusNotFound, "query: no archive configured (live source only)"}
	}
	man, err := archive.ReadManifest(s.cfg.Archive)
	if err != nil {
		return nil, err
	}
	s.man = man
	return man, nil
}

// resolveKey turns request parameters into a cache key. Every
// user-input parse failure — malformed or backwards months, an unknown
// view, an out-of-range vantage — comes back as a 400 naming the
// archive's real month window (mirroring the CLI's -range behaviour),
// never as a raw 500 from deeper in the stack.
func (s *Server) resolveKey(r *http.Request) (Key, error) {
	q := r.URL.Query()
	view := strings.ToLower(strings.TrimSpace(q.Get("view")))
	if src := q.Get("source"); src == "live" {
		if q.Get("months") != "" {
			return Key{}, errBadRequest("query: months slicing is not supported for the live source")
		}
		if view != "" {
			return Key{}, errBadRequest("query: view selection is not supported for the live source")
		}
		s.mu.Lock()
		live := s.live
		s.mu.Unlock()
		if live == nil {
			return Key{}, &httpError{http.StatusNotFound, "query: no live source configured"}
		}
		return Key{Live: true, From: 0, To: types.StudyMonths - 1}, nil
	} else if src != "" && src != "archive" {
		return Key{}, errBadRequest("query: unknown source %q (want archive or live)", src)
	}
	man, err := s.manifest()
	if err != nil {
		return Key{}, err
	}
	first, last := man.Window()
	from, to, err := types.ParseMonthRange(q.Get("months"))
	if err != nil {
		return Key{}, errBadRequest("%v (the archive covers months %s..%s)", err, first.Label(), last.Label())
	}
	// A range that misses the archive entirely is a client mistake, not a
	// server failure: reject it here with the archive's actual window. A
	// partial overlap is clamped to the window so every spelling of the
	// same slice shares one cache key (and one cold analysis).
	if len(man.Segments) > 0 {
		if to < first || from > last {
			return Key{}, errBadRequest("query: months %s..%s outside the archive's window %s..%s",
				from.Label(), to.Label(), first.Label(), last.Label())
		}
		if from < first {
			from = first
		}
		if to > last {
			to = last
		}
	}
	if err := dataset.CheckViewFor(view, max(len(man.Vantages), 1)); err != nil {
		return Key{}, errBadRequest("%v", err)
	}
	return Key{
		Archive:  s.cfg.Archive,
		From:     from,
		To:       to,
		View:     view,
		Scenario: man.Meta["scenario"],
	}, nil
}

// report resolves a key to an analyzed report through the report level:
// cache hit, wait on an in-flight build of the same key, or build (then
// cache). Live keys read the source's height first — cheap by contract —
// and snapshot only on a miss at that height; archive keys assemble
// month partials, byte-identical to a full-range analysis of the slice.
func (s *Server) report(key Key) (*measure.Report, error) {
	if !key.Live {
		return s.reports.do(key, func() (*measure.Report, error) { return s.build(key) })
	}
	s.mu.Lock()
	live := s.live
	s.mu.Unlock()
	if live == nil {
		return nil, &httpError{http.StatusNotFound, "query: no live source configured"}
	}
	key.Height = live.Height()
	return s.reports.do(key, func() (*measure.Report, error) {
		rep, height := live.Snapshot()
		// The source may have grown past the probed height: cache the
		// snapshot under the height it actually covers too, so a later
		// query at that height hits.
		if height != key.Height {
			covered := key
			covered.Height = height
			s.reports.add(covered, rep)
		}
		return rep, nil
	})
}

// build runs one cold archive report build — assemble over the
// server's partial level — under a flight-recorder trace
// when metrics are on; a successful build's stage durations feed the
// mevscope_stage_seconds histograms.
func (s *Server) build(key Key) (*measure.Report, error) {
	man, err := s.manifest()
	if err != nil {
		return nil, err
	}
	var tr *obs.Trace
	if s.metrics != nil {
		tr = obs.New("build")
	}
	sp := tr.Root()
	rep, err := assemble(man, key, s.cfg.AnalyzePartial, s.cfg.Workers, s.partials, sp)
	if err == nil {
		sp.End()
		s.metrics.observeTrace(tr)
	}
	return rep, err
}

// Assemble builds the report of the archive at dir (whose manifest the
// caller has loaded) over months from..to under view as a server's cold
// build does, with no cache: analyze (mevscope.AnalyzeDatasetPartial)
// runs once per archived month, workers sizes the pool as
// Config.Workers does, and sp, when non-nil, records the build. A range
// that selects no archived month is an error naming the archive's
// window.
func Assemble(dir string, man *archive.Manifest, from, to types.Month, view string, analyze PartialFunc, workers int, sp *obs.Span) (*measure.Report, error) {
	return assemble(man, Key{Archive: dir, From: from, To: to, View: view}, analyze, workers, nil, sp)
}

// assemble builds a range report by merging the month partials of every
// archived month the key covers, in manifest order, each resolved
// through the partial level, so only the months no earlier build
// analyzed do work. Those share one archive.Shared — the price series and
// the observation network through the last month the scan found missing,
// restored once per build, lazily by whichever miss first needs it — and
// fan out across the worker pool. A month gap is left to MergePartials,
// which rejects it as a full-range restore does; the merge runs on one
// worker. A nil partial level caches nothing. Each computed month gets
// an analyze:partial span, so a trace of an assembled build shows
// exactly which months were memoized.
func assemble(man *archive.Manifest, key Key, analyze PartialFunc, workers int,
	partials *level[partialKey, *measure.Partial], sp *obs.Span) (*measure.Report, error) {
	var keys []partialKey
	var parts []*measure.Partial // the scan's cached partials, nil where missing
	missing, last := 0, key.From
	for _, seg := range man.Segments {
		m := seg.Month
		if m < key.From || m > key.To {
			continue
		}
		pk := partialKey{archive: key.Archive, month: m, scenario: key.Scenario}
		p, ok := partials.peek(pk)
		if ok {
			psp := sp.Child(obs.StagePartial)
			psp.SetLabel(m.Label() + ":cached")
			psp.End()
		} else {
			missing, last = missing+1, m
		}
		keys = append(keys, pk)
		parts = append(parts, p)
	}
	if len(keys) == 0 { // an archive with month gaps can overlap a range yet hold none of it
		lo, hi := man.Window()
		return nil, errBadRequest("query: months %s..%s select no archived segments (the archive covers %s..%s)",
			key.From.Label(), key.To.Label(), lo.Label(), hi.Label())
	}
	// Missing months × inner workers stays within the configured pool:
	// the months split it, and each month's analysis gets an equal share.
	// The shared restore may use all of it — every month waits on it.
	pool := parallel.Workers(workers)
	outer := min(pool, max(missing, 1))
	inner := pool / outer
	shared := sync.OnceValues(func() (*archive.Shared, error) {
		return archive.RestoreShared(key.Archive, man, last,
			archive.ReadOptions{Workers: pool, Span: sp})
	})
	errs := parallel.Map(len(keys), outer, func(i int) error {
		scanned := parts[i]
		var err error
		parts[i], err = partials.do(keys[i], func() (*measure.Partial, error) {
			if scanned != nil {
				return scanned, nil // evicted since the scan: republish it
			}
			sh, err := shared()
			if err != nil {
				return nil, err
			}
			psp := sp.Child(obs.StagePartial)
			psp.SetLabel(keys[i].month.Label() + ":computed")
			defer psp.End()
			ds, err := sh.ReadMonth(keys[i].month, archive.ReadOptions{Workers: inner, Span: psp})
			if err != nil {
				return nil, err
			}
			return analyze(ds, inner, psp)
		})
		return err
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return measure.MergePartials(parts, key.View, sp)
}

// respond writes one fully-buffered response: encode runs to completion
// into memory before any byte reaches the client, so a mid-encode
// failure is a real 500 (nothing of the partial body leaks into a 200)
// and Content-Length is always exact. A non-empty etag is set on the
// response. Bodies here are small — one artifact or one rendered report
// — so the buffer is cheap insurance, not a streaming bottleneck.
func respond(w http.ResponseWriter, contentType, etag string, encode func(io.Writer) error) {
	var buf bytes.Buffer
	if err := encode(&buf); err != nil {
		fail(w, fmt.Errorf("query: encoding response: %w", err))
		return
	}
	if etag != "" {
		w.Header().Set("ETag", etag)
	}
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(http.StatusOK)
	// A short write here means the client hung up; the status line is
	// already on the wire, so there is nothing left to report.
	_, _ = w.Write(buf.Bytes())
}

// writeJSON writes v as indented JSON, buffered like every other body.
func writeJSON(w http.ResponseWriter, v any) {
	respond(w, "application/json; charset=utf-8", "", func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}

// etagFor hashes a response body's immutable identity — the cache key
// plus the encoding — into a strong ETag. Reports are immutable per
// (archive, month range, view, scenario), and resolveKey canonicalizes
// every spelling of a slice to one key, so the hash is a free validator:
// no body bytes are touched to compute it. Live sources are mutable and
// get no ETag.
func etagFor(key Key, format, name string) string {
	if key.Live {
		return ""
	}
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s|%d|%d|%s|%s|%s|%s",
		key.Archive, key.From, key.To, key.View, key.Scenario, format, name)))
	return `"` + hex.EncodeToString(sum[:16]) + `"`
}

// etagMatch reports whether an If-None-Match header matches etag, using
// the weak comparison RFC 9110 prescribes for If-None-Match.
func etagMatch(header, etag string) bool {
	if header == "" || etag == "" {
		return false
	}
	for _, tok := range strings.Split(header, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "*" || tok == etag || strings.TrimPrefix(tok, "W/") == etag {
			return true
		}
	}
	return false
}

// notModified answers a conditional GET whose validator still matches:
// 304, the ETag, no body. Callers check it before building the report —
// the match is decided by the request's identity alone, so a 304 skips
// not just the encoding but the analysis a cold LRU would otherwise pay.
func notModified(w http.ResponseWriter, r *http.Request, etag string) bool {
	if !etagMatch(r.Header.Get("If-None-Match"), etag) {
		return false
	}
	w.Header().Set("ETag", etag)
	w.WriteHeader(http.StatusNotModified)
	return true
}

// artifactInfo describes one artifact in the /v1/artifacts listing.
type artifactInfo struct {
	Name    string           `json:"name"`
	Title   string           `json:"title"`
	Columns []measure.Column `json:"columns,omitempty"`
	Rows    int              `json:"rows"`
	Scalars []string         `json:"scalars,omitempty"`
}

// handleArtifacts lists the slice's artifacts: names, schemas, row
// counts — the index a consumer walks before fetching bodies.
func (s *Server) handleArtifacts(w http.ResponseWriter, r *http.Request) {
	key, err := s.resolveKey(r)
	if err != nil {
		fail(w, err)
		return
	}
	rep, err := s.report(key)
	if err != nil {
		fail(w, err)
		return
	}
	out := struct {
		Archive   string         `json:"archive"`
		Scenario  string         `json:"scenario,omitempty"`
		Months    string         `json:"months"`
		View      string         `json:"view,omitempty"`
		Artifacts []artifactInfo `json:"artifacts"`
	}{
		Archive:  key.Archive,
		Scenario: key.Scenario,
		Months:   key.From.Label() + ".." + key.To.Label(),
		View:     key.View,
	}
	for _, a := range rep.Artifacts() {
		info := artifactInfo{Name: a.Name, Title: a.Title, Columns: a.Columns, Rows: len(a.Rows)}
		for _, sc := range a.Scalars {
			info.Scalars = append(info.Scalars, sc.Name)
		}
		out.Artifacts = append(out.Artifacts, info)
	}
	writeJSON(w, out)
}

// handleArtifact serves one artifact in the requested format. The
// artifact name is validated against the model's static name list
// before the conditional-GET check, so a fabricated If-None-Match for a
// name that never had a representation cannot turn a 404 into a 304.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/v1/artifact/")
	if name == "" || strings.Contains(name, "/") {
		fail(w, errBadRequest("query: bad artifact path %q", r.URL.Path))
		return
	}
	if !knownArtifact(name) {
		fail(w, &httpError{http.StatusNotFound,
			fmt.Sprintf("query: no artifact %q (valid: %s)", name, strings.Join(measure.ArtifactNames(), ", "))})
		return
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "json"
	}
	switch format {
	case "json", "csv", "text":
	default:
		fail(w, errBadRequest("query: unknown format %q (want json, csv or text)", format))
		return
	}
	key, err := s.resolveKey(r)
	if err != nil {
		fail(w, err)
		return
	}
	etag := etagFor(key, format, name)
	if notModified(w, r, etag) {
		return
	}
	rep, err := s.report(key)
	if err != nil {
		fail(w, err)
		return
	}
	a, ok := rep.Artifact(name)
	if !ok {
		fail(w, &httpError{http.StatusNotFound,
			fmt.Sprintf("query: no artifact %q (valid: %s)", name, strings.Join(measure.ArtifactNames(), ", "))})
		return
	}
	switch format {
	case "csv":
		respond(w, "text/csv; charset=utf-8", etag, a.WriteCSV)
	case "text":
		respond(w, "text/plain; charset=utf-8", etag, func(w io.Writer) error {
			measure.WriteText(w, a)
			return nil
		})
	default:
		respond(w, "application/json; charset=utf-8", etag, a.WriteJSON)
	}
}

// knownArtifact reports whether name is in the artifact model.
func knownArtifact(name string) bool {
	for _, n := range measure.ArtifactNames() {
		if n == name {
			return true
		}
	}
	return false
}

// handleReport serves the full report: the text rendering (the classic
// study output) or every artifact as one JSON document.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "text"
	}
	if format != "text" && format != "json" {
		fail(w, errBadRequest("query: unknown format %q (want text or json)", format))
		return
	}
	key, err := s.resolveKey(r)
	if err != nil {
		fail(w, err)
		return
	}
	etag := etagFor(key, format, "report")
	if notModified(w, r, etag) {
		return
	}
	rep, err := s.report(key)
	if err != nil {
		fail(w, err)
		return
	}
	if format == "json" {
		respond(w, "application/json; charset=utf-8", etag, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(rep.Artifacts())
		})
		return
	}
	respond(w, "text/plain; charset=utf-8", etag, func(w io.Writer) error {
		measure.WriteReportText(w, rep)
		return nil
	})
}

// handleManifest serves the archive manifest (no data files touched).
func (s *Server) handleManifest(w http.ResponseWriter, r *http.Request) {
	man, err := s.manifest()
	if err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, man)
}

// handleBlock serves one block by number as JSON — a point lookup that
// resolves the block's month from the server's cached manifest, so a hot
// loop of block queries parses the manifest once, not once per request.
// It binary-searches the month's sealed blocks, which the month level
// holds: the first lookup in a month reads and assembles it
// (archive.ReadBlocks), and later lookups there touch no disk.
func (s *Server) handleBlock(w http.ResponseWriter, r *http.Request) {
	man, err := s.manifest()
	if err != nil {
		fail(w, err)
		return
	}
	numStr := r.URL.Query().Get("number")
	if numStr == "" {
		fail(w, errBadRequest("query: missing number parameter"))
		return
	}
	n, err := strconv.ParseUint(numStr, 10, 64)
	if err != nil {
		fail(w, errBadRequest("query: bad block number %q", numStr))
		return
	}
	var seg *archive.SegmentInfo
	for i := range man.Segments {
		if si := &man.Segments[i]; si.FirstBlock <= n && n <= si.LastBlock {
			seg = si
			break
		}
	}
	if seg == nil {
		fail(w, &httpError{http.StatusNotFound,
			fmt.Sprintf("query: no archived segment holds block %d", n)})
		return
	}
	blocks, err := s.months.do(monthKey{s.cfg.Archive, seg.Month}, func() ([]*types.Block, error) {
		return archive.ReadBlocks(s.cfg.Archive, *seg)
	})
	if err != nil {
		fail(w, err)
		return
	}
	i := sort.Search(len(blocks), func(i int) bool { return blocks[i].Header.Number >= n })
	if i == len(blocks) || blocks[i].Header.Number != n {
		fail(w, fmt.Errorf("query: block %d missing from segment %s", n, seg.Label))
		return
	}
	writeJSON(w, blocks[i])
}

// handleCache serves every cache level's hit/miss counters: the report
// LRU, the month-partial LRU beneath it and the month level behind
// /v1/block (reported under "segments").
func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, struct {
		Reports  CacheStats        `json:"reports"`
		Partials PartialCacheStats `json:"partials"`
		Segments SegmentCacheStats `json:"segments"`
	}{s.CacheStats(), s.PartialCacheStats(), s.SegmentCacheStats()})
}
