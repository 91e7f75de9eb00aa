package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"time"

	"mevscope"
	"mevscope/internal/archive"
	"mevscope/internal/core/measure"
	"mevscope/internal/dataset"
	"mevscope/internal/obs"
	"mevscope/internal/query"
	"mevscope/internal/types"
)

// The served world: a multi-vantage baseline archive, as
// `mevscope archive -vantages 4` writes it.
const (
	serveBPM      = 100
	serveVantages = 4
)

// archiveServeWorld simulates the served world and archives it into dir.
func archiveServeWorld(seed int64, dir string) (*archive.Manifest, error) {
	opts := mevscope.Options{Seed: seed, BlocksPerMonth: serveBPM, Vantages: serveVantages}
	cfg, err := opts.Config()
	if err != nil {
		return nil, err
	}
	s, err := simulate(cfg, nil)
	if err != nil {
		return nil, err
	}
	meta := map[string]string{
		"seed": strconv.FormatInt(seed, 10), "scenario": "baseline", "bpm": strconv.Itoa(serveBPM),
		"months": strconv.Itoa(types.StudyMonths), "vantages": strconv.Itoa(serveVantages),
	}
	return archive.Write(dir, dataset.FromSim(s), meta)
}

// newServer configures a query.Server the way `mevscope serve` does: all
// three analysis hooks and the default caches. A hook call made inside a
// traced request runs under a "query.analyze" span; one made inside an
// untraced request records nothing.
func newServer(dir string, tr *tracer) (*query.Server, error) {
	return query.New(query.Config{
		Archive: dir,
		Analyze: func(ds *dataset.Dataset, workers int, sp *obs.Span) (*measure.Report, error) {
			defer tr.end(tr.beginNested("query.analyze"))
			st, err := mevscope.AnalyzeDatasetTraced(ds, workers, sp)
			if err != nil {
				return nil, err
			}
			return st.Report, nil
		},
		AnalyzeProjection: func(ds *dataset.Dataset, workers int, artifacts []string, sp *obs.Span) (*measure.Report, error) {
			defer tr.end(tr.beginNested("query.analyze"))
			return mevscope.AnalyzeDatasetProjection(ds, workers, artifacts, sp)
		},
		AnalyzePartial: func(ds *dataset.Dataset, workers int, sp *obs.Span) (*measure.Partial, error) {
			defer tr.end(tr.beginNested("query.analyze"))
			return mevscope.AnalyzeDatasetPartial(ds, workers, sp)
		},
		CacheSize: 16,
	})
}

// response is what the oracle keeps of one served request.
type response struct {
	url    string
	status int
	etag   string
	body   [sha256.Size]byte
	size   int
}

// get serves one GET through the server's ServeHTTP under a "query"
// span, sending If-None-Match when inm is set.
func get(srv http.Handler, target, inm string, tr *tracer) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, target, nil)
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	rec := httptest.NewRecorder()
	id := tr.begin("query")
	srv.ServeHTTP(rec, req)
	tr.end(id)
	return rec
}

func summarize(target string, rec *httptest.ResponseRecorder) response {
	return response{
		url: target, status: rec.Code, etag: rec.Header().Get("ETag"),
		body: sha256.Sum256(rec.Body.Bytes()), size: rec.Body.Len(),
	}
}

// cacheStats sums the three cache levels' counters of a server.
type cacheStats struct {
	reportHits, reportMisses   int64
	partialHits, partialMisses int64
	chunkHits, chunkMisses     int64
	evictions                  int64
}

func statsOf(srv *query.Server) cacheStats {
	r, p, s := srv.CacheStats(), srv.PartialCacheStats(), srv.SegmentCacheStats()
	return cacheStats{
		reportHits: r.Hits, reportMisses: r.Misses,
		partialHits: p.Hits, partialMisses: p.Misses,
		chunkHits: s.Hits, chunkMisses: s.Misses,
		evictions: r.Evictions + p.Evictions + s.Evictions,
	}
}

func (c cacheStats) add(d cacheStats) cacheStats {
	return cacheStats{
		c.reportHits + d.reportHits, c.reportMisses + d.reportMisses,
		c.partialHits + d.partialHits, c.partialMisses + d.partialMisses,
		c.chunkHits + d.chunkHits, c.chunkMisses + d.chunkMisses,
		c.evictions + d.evictions,
	}
}

func (c cacheStats) sub(d cacheStats) cacheStats {
	return c.add(cacheStats{
		-d.reportHits, -d.reportMisses, -d.partialHits, -d.partialMisses,
		-d.chunkHits, -d.chunkMisses, -d.evictions,
	})
}

func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// setQueryLayer records the query layer's per-layer metrics from a traced
// run: hook time per request, ServeHTTP self time, cache deltas and
// response accounting.
func (b *bench) setQueryLayer(tr *tracer, cs cacheStats, resps []response, allocs uint64) {
	// A request's hook time is its span's total minus its self time;
	// the p50 is over the requests that called a hook at all.
	total, self := tr.layerTotal("query"), tr.layerSelf("query")
	var hooks []time.Duration
	for i := range total {
		if h := total[i] - self[i]; h > 0 {
			hooks = append(hooks, h)
		}
	}
	b.set("query.analyze_ms_p50", ms(quantile(hooks, 0.5)))
	b.set("query.self_ms_p50", ms(quantile(self, 0.5)))
	b.set("query.self_ms_p99", ms(quantile(self, 0.99)))
	b.set("query.report_hit_ratio", ratio(cs.reportHits, cs.reportMisses))
	b.set("query.partial_hit_ratio", ratio(cs.partialHits, cs.partialMisses))
	b.set("query.chunk_hit_ratio", ratio(cs.chunkHits, cs.chunkMisses))
	b.set("query.evictions", float64(cs.evictions))
	var notModified, size int
	for _, r := range resps {
		if r.status == http.StatusNotModified {
			notModified++
		}
		size += r.size
	}
	n := float64(len(resps))
	b.set("query.partial_misses_per_req", float64(cs.partialMisses)/n)
	b.set("query.not_modified_ratio", float64(notModified)/n)
	b.set("query.bytes_per_req", float64(size)/n)
	b.set("query.allocs_per_req", float64(allocs)/n)
}

// runServeCold is the first request after a restart: set-up archives the
// served world, and each op builds a fresh server and GETs the
// full-window report, one request at a time.
func runServeCold(b *bench) error {
	dir, err := b.setup(func(dir string) error {
		_, err := archiveServeWorld(b.seed, dir)
		return err
	})
	if err != nil {
		return err
	}
	man, err := archive.ReadManifest(dir)
	if err != nil {
		return err
	}
	first, last := man.Window()
	target := "/v1/report?months=" + first.Label() + ".." + last.Label()

	var tr *tracer
	if b.traced {
		tr = newTracer()
	}
	var (
		resps  []response
		cs     cacheStats
		allocs uint64
	)
	op := func(tr *tracer) (time.Duration, error) {
		a0 := heapAllocs()
		start := time.Now()
		srv, err := newServer(dir, tr)
		if err != nil {
			return 0, err
		}
		rec := get(srv, target, "", tr)
		d := time.Since(start)
		resps = append(resps, summarize(target, rec))
		if tr != nil {
			allocs += heapAllocs() - a0
			cs = cs.add(statsOf(srv))
		}
		return d, nil
	}
	var plain, traced []time.Duration
	if err := b.timed(func() (err error) {
		plain, traced, err = b.closedLoop(tr, op)
		return err
	}); err != nil {
		return err
	}

	rep, err := referenceReport(dir, first, last, "")
	if err != nil {
		return err
	}
	want := render(rep)
	if b.perturb {
		want = perturbed(want)
	}
	wantSum := sha256.Sum256(want)
	for _, r := range resps {
		b.check(r.status == http.StatusOK && r.body == wantSum)
	}

	b.set("latency_p50_ms", ms(quantile(plain, 0.5)))
	b.set("latency_p90_ms", ms(quantile(plain, 0.9)))
	b.set("throughput_per_s", 1/quantile(plain, 0.5).Seconds())
	b.set("disk_bytes_per_block", float64(man.DataBytes())/float64(man.TotalBlocks))
	if tr == nil {
		return nil
	}
	var tracedResps []response
	for i, r := range resps {
		if i%2 == 1 {
			tracedResps = append(tracedResps, r)
		}
	}
	b.set("archive.data_bytes", float64(man.DataBytes()))
	b.setQueryLayer(tr, cs, tracedResps, allocs)
	b.traceSummary(tr, plain, traced)
	return nil
}

// referenceReport is the library's answer for one (months, view) key:
// archive.ReadRange, the view, AnalyzeDataset.
func referenceReport(dir string, from, to types.Month, view string) (*measure.Report, error) {
	ds, _, err := archive.ReadRange(dir, from, to)
	if err != nil {
		return nil, err
	}
	ds.View = view
	st, err := mevscope.AnalyzeDataset(ds, 0)
	if err != nil {
		return nil, err
	}
	return st.Report, nil
}

// encodeLike encodes a reference report the way the server encodes the
// body of target (a /v1/report or /v1/artifact/ URL) with the measure
// package's encoders.
func encodeLike(rep *measure.Report, target string) ([]byte, error) {
	u, err := url.Parse(target)
	if err != nil {
		return nil, err
	}
	format := u.Query().Get("format")
	var buf bytes.Buffer
	if u.Path == "/v1/report" {
		if format == "json" {
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ")
			err = enc.Encode(rep.Artifacts())
		} else {
			mevscope.WriteReportTo(&buf, rep)
		}
		return buf.Bytes(), err
	}
	name := strings.TrimPrefix(u.Path, "/v1/artifact/")
	a, ok := rep.Artifact(name)
	if !ok {
		return nil, fmt.Errorf("reference report has no artifact %q", name)
	}
	switch format {
	case "csv":
		err = a.WriteCSV(&buf)
	case "text":
		measure.WriteText(&buf, a)
	default:
		err = a.WriteJSON(&buf)
	}
	return buf.Bytes(), err
}
