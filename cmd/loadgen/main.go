// Command loadgen replays a configurable mix of mevscope serve queries
// at N concurrent clients and reports the serving tier's throughput and
// latency distribution — the measurement surface behind CI's
// BENCH_load.json artifact. It drives either an in-process query.Server
// over an archive (-from, no sockets, so the process's allocs/request
// reflect the server) or a remote `mevscope serve` instance (-url).
//
// Usage:
//
//	loadgen -from DIR [-clients 1,64,1024] [-duration 2s]
//	        [-mix artifact:6,report:2,artifacts:1,manifest:1] [-inm 0.5]
//	        [-parallel W] [-out BENCH_load.json] [-require-partial-hits]
//	loadgen -url http://127.0.0.1:8571 [...]
//
// Besides the fixed-URL kinds (artifact, projected, report, artifacts,
// manifest, cache), two kinds resolve their URL set against the target's
// /v1/manifest before the run: `sliding-window` walks overlapping
// month-range report windows across the archive — every URL a distinct
// report key, so the workload exercises the month-partial cache rather
// than the report LRU — and `block` rotates point lookups across the
// archived block range. The JSON output ends with the server's
// partial-cache counters (from /v1/cache) when that level exists;
// -require-partial-hits turns a zero hit count into a failing exit, CI's
// "the sliding-window mix actually reused month partials" gate.
//
// Each clients level runs for -duration: a warmup pass first fetches
// every URL the mix can produce (building the report once and capturing
// each response's ETag), then N clients issue the weighted mix
// back-to-back, attaching If-None-Match to the -inm fraction of
// requests so the 304 path is exercised at its production ratio. Per
// level the JSON output carries qps, p50/p90/p99 latency (via the same
// log-bucket histogram the server's /metrics uses), bytes per request,
// the 304 ratio, and the status-class breakdown. In-process runs also
// report process_allocs_per_req — the whole process's MemStats delta
// (client plumbing + server) per request; -url runs omit it, since a
// client-side alloc count says nothing about the server across a
// socket.
//
// Any 5xx or transport error fails the run (exit 1) after the JSON is
// written — CI uses that as its "no server errors under load" gate.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mevscope"
	"mevscope/internal/query"
)

func main() {
	var (
		from     = flag.String("from", "", "archive directory to serve in-process")
		url      = flag.String("url", "", "base URL of a running `mevscope serve` to load instead")
		clients  = flag.String("clients", "1,64,1024", "comma-separated concurrency levels")
		duration = flag.Duration("duration", 2*time.Second, "run length per concurrency level")
		mix      = flag.String("mix", "artifact:6,report:2,artifacts:1,manifest:1", "weighted query mix (kind:weight,...); kinds: artifact, projected, report, artifacts, manifest, cache, sliding-window, block")
		inm      = flag.Float64("inm", 0.5, "fraction of requests sent with If-None-Match (conditional GETs)")
		parallel = flag.Int("parallel", 0, "in-process analysis worker-pool size (0 = all cores)")
		out      = flag.String("out", "", "JSON result file (default: stdout)")
		quiet    = flag.Bool("q", false, "suppress progress output")
		reqHits  = flag.Bool("require-partial-hits", false, "fail unless the server's partial cache recorded at least one hit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	cfg, err := parseConfig(*from, *url, *clients, *mix, *inm, *duration, *parallel, *quiet)
	if err != nil {
		fatal(err)
	}
	result, err := run(&cfg)
	if err != nil {
		fatal(err)
	}
	raw, err := json.MarshalIndent(result, "", "  ")
	if err != nil {
		fatal(err)
	}
	raw = append(raw, '\n')
	if *out == "" {
		os.Stdout.Write(raw)
	} else if err := os.WriteFile(*out, raw, 0o644); err != nil {
		fatal(err)
	}
	if bad := result.serverFailures(); bad > 0 {
		fatal(fmt.Errorf("%d requests failed with 5xx or transport errors under load", bad))
	}
	if *reqHits {
		if result.PartialCache == nil {
			fatal(fmt.Errorf("-require-partial-hits: the target reports no partial-cache level"))
		}
		if result.PartialCache.Hits == 0 {
			fatal(fmt.Errorf("-require-partial-hits: partial cache recorded zero hits (%d misses) — month partials were never reused", result.PartialCache.Misses))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}

// config is one parsed invocation.
type config struct {
	from, url string
	clients   []int
	duration  time.Duration
	mix       []mixEntry
	mixSpec   string
	inm       float64
	parallel  int
	quiet     bool
	// kindURLs is the per-run URL set behind each mix kind: the static
	// mixKinds rotations plus whatever the dynamic kinds resolved from
	// the target's manifest (see resolve).
	kindURLs map[string][]string
}

// mixEntry is one weighted request kind.
type mixEntry struct {
	kind   string
	weight int
}

// mixKinds maps each kind to the URLs it rotates through. Artifact
// queries spread over several artifacts so the mix touches differently
// sized bodies; everything shares one (full-window) report, so the
// server pays one analysis and the run measures serving, not the
// pipeline.
var mixKinds = map[string][]string{
	"artifact": {
		"/v1/artifact/table1?format=json",
		"/v1/artifact/fig3?format=json",
		"/v1/artifact/fig9?format=json",
		"/v1/artifact/bundles?format=csv",
	},
	// projected rotates the header-level artifacts (the ones
	// measure.ProjectionColumns names), served off the same full-window
	// report as every other artifact.
	"projected": {
		"/v1/artifact/fig4?format=json",
		"/v1/artifact/fig5?format=json",
		"/v1/artifact/concentration?format=json",
	},
	"report":    {"/v1/report?format=text"},
	"artifacts": {"/v1/artifacts"},
	"manifest":  {"/v1/manifest"},
	"cache":     {"/v1/cache"},
}

// dynamicKinds name the mix kinds whose URL sets depend on the target's
// archive and are resolved from /v1/manifest at run start.
var dynamicKinds = map[string]bool{
	"sliding-window": true,
	"block":          true,
}

// parseConfig validates the flag combination.
func parseConfig(from, url, clients, mixSpec string, inm float64, duration time.Duration, parallel int, quiet bool) (config, error) {
	if (from == "") == (url == "") {
		return config{}, fmt.Errorf("need exactly one of -from DIR (in-process) or -url URL (remote)")
	}
	levels, err := parseClients(clients)
	if err != nil {
		return config{}, err
	}
	mix, err := parseMix(mixSpec)
	if err != nil {
		return config{}, err
	}
	if inm < 0 || inm > 1 {
		return config{}, fmt.Errorf("-inm must be in [0, 1] (got %g)", inm)
	}
	if duration <= 0 {
		return config{}, fmt.Errorf("-duration must be positive (got %v)", duration)
	}
	// The static kinds are usable immediately; resolve() fills in the
	// dynamic ones once a target exists to ask for the manifest.
	kindURLs := make(map[string][]string, len(mix))
	for _, e := range mix {
		if !dynamicKinds[e.kind] {
			kindURLs[e.kind] = mixKinds[e.kind]
		}
	}
	return config{
		from: from, url: strings.TrimRight(url, "/"), clients: levels,
		duration: duration, mix: mix, mixSpec: mixSpec, inm: inm,
		parallel: parallel, quiet: quiet, kindURLs: kindURLs,
	}, nil
}

// parseClients parses the comma-separated concurrency levels.
func parseClients(s string) ([]int, error) {
	var out []int
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		n, err := strconv.Atoi(p)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad client count %q in -clients", p)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-clients names no levels")
	}
	return out, nil
}

// parseMix parses "kind:weight,..." into weighted entries.
func parseMix(s string) ([]mixEntry, error) {
	var out []mixEntry
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		kind, weightStr, ok := strings.Cut(p, ":")
		if !ok {
			return nil, fmt.Errorf("bad mix entry %q (want kind:weight)", p)
		}
		if _, known := mixKinds[kind]; !known && !dynamicKinds[kind] {
			kinds := make([]string, 0, len(mixKinds)+len(dynamicKinds))
			for k := range mixKinds {
				kinds = append(kinds, k)
			}
			for k := range dynamicKinds {
				kinds = append(kinds, k)
			}
			sort.Strings(kinds)
			return nil, fmt.Errorf("unknown mix kind %q (valid: %s)", kind, strings.Join(kinds, ", "))
		}
		w, err := strconv.Atoi(weightStr)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad weight in mix entry %q", p)
		}
		out = append(out, mixEntry{kind, w})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-mix names no queries")
	}
	return out, nil
}

// resolve materializes the mix's URL sets, consulting the target's
// manifest for the dynamic kinds: sliding-window becomes overlapping
// month-range report windows stepping one month at a time (window width
// one month short of the archive when the archive is small, capped at
// six — so even a four-month test archive overlaps), and block becomes
// sixteen point lookups spread across the archived block range.
func (c *config) resolve(tgt target) error {
	c.kindURLs = make(map[string][]string, len(c.mix))
	needManifest := false
	for _, e := range c.mix {
		if dynamicKinds[e.kind] {
			needManifest = true
		} else {
			c.kindURLs[e.kind] = mixKinds[e.kind]
		}
	}
	if !needManifest {
		return nil
	}
	raw, err := tgt.get("/v1/manifest")
	if err != nil {
		return fmt.Errorf("resolve mix: %w", err)
	}
	var man struct {
		Segments []struct {
			Label      string `json:"label"`
			FirstBlock uint64 `json:"first_block"`
			LastBlock  uint64 `json:"last_block"`
		} `json:"segments"`
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		return fmt.Errorf("resolve mix: decode manifest: %w", err)
	}
	if len(man.Segments) == 0 {
		return fmt.Errorf("resolve mix: the manifest names no segments")
	}
	for _, e := range c.mix {
		switch e.kind {
		case "sliding-window":
			n := len(man.Segments)
			win := n - 1
			if win > 6 {
				win = 6
			}
			if win < 1 {
				win = 1
			}
			var urls []string
			for i := 0; i+win <= n; i++ {
				urls = append(urls, fmt.Sprintf("/v1/report?format=text&months=%s..%s",
					man.Segments[i].Label, man.Segments[i+win-1].Label))
			}
			c.kindURLs[e.kind] = urls
		case "block":
			first := man.Segments[0].FirstBlock
			last := man.Segments[len(man.Segments)-1].LastBlock
			const points = 16
			var urls []string
			for i := 0; i < points; i++ {
				n := first + (last-first)*uint64(i)/(points-1)
				urls = append(urls, fmt.Sprintf("/v1/block?number=%d", n))
			}
			c.kindURLs[e.kind] = urls
		}
	}
	return nil
}

// urls returns every distinct URL the mix can produce (the warmup set).
func (c config) urls() []string {
	seen := map[string]bool{}
	var out []string
	for _, e := range c.mix {
		for _, u := range c.kindURLs[e.kind] {
			if !seen[u] {
				seen[u] = true
				out = append(out, u)
			}
		}
	}
	return out
}

// pick selects a request URL from the weighted mix.
func (c config) pick(rng *rand.Rand) string {
	total := 0
	for _, e := range c.mix {
		total += e.weight
	}
	n := rng.Intn(total)
	for _, e := range c.mix {
		if n < e.weight {
			urls := c.kindURLs[e.kind]
			return urls[rng.Intn(len(urls))]
		}
		n -= e.weight
	}
	return c.kindURLs[c.mix[0].kind][0]
}

// target issues one request and reports what came back.
type target interface {
	do(path, ifNoneMatch string) (status int, etag string, bytes int64, err error)
	// get fetches one path's body — the out-of-band channel for the
	// manifest (mix resolution) and the cache counters (reporting).
	get(path string) ([]byte, error)
}

// inprocTarget drives a query.Server directly — no sockets, no client
// allocations beyond the request plumbing, so allocs/request reflect
// the server.
type inprocTarget struct{ srv *query.Server }

// nullWriter is the in-process ResponseWriter: counts body bytes,
// captures status and headers, writes nothing.
type nullWriter struct {
	h      http.Header
	status int
	n      int64
}

func (w *nullWriter) Header() http.Header { return w.h }
func (w *nullWriter) WriteHeader(c int)   { w.status = c }
func (w *nullWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.n += int64(len(p))
	return len(p), nil
}

func (t *inprocTarget) do(path, inm string) (int, string, int64, error) {
	req, err := http.NewRequest(http.MethodGet, "http://loadgen"+path, nil)
	if err != nil {
		return 0, "", 0, err
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	w := &nullWriter{h: make(http.Header), status: http.StatusOK}
	t.srv.ServeHTTP(w, req)
	return w.status, w.h.Get("ETag"), w.n, nil
}

// bodyWriter is the in-process ResponseWriter that keeps the body —
// only the out-of-band get path uses it, never the hot loop.
type bodyWriter struct {
	h      http.Header
	status int
	buf    bytes.Buffer
}

func (w *bodyWriter) Header() http.Header { return w.h }
func (w *bodyWriter) WriteHeader(c int)   { w.status = c }
func (w *bodyWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.buf.Write(p)
}

func (t *inprocTarget) get(path string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, "http://loadgen"+path, nil)
	if err != nil {
		return nil, err
	}
	w := &bodyWriter{h: make(http.Header), status: http.StatusOK}
	t.srv.ServeHTTP(w, req)
	if w.status != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, w.status, w.buf.String())
	}
	return w.buf.Bytes(), nil
}

// remoteTarget drives a running server over HTTP.
type remoteTarget struct {
	base   string
	client *http.Client
}

func (t *remoteTarget) do(path, inm string) (int, string, int64, error) {
	req, err := http.NewRequest(http.MethodGet, t.base+path, nil)
	if err != nil {
		return 0, "", 0, err
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return 0, "", 0, err
	}
	n, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("ETag"), n, err
}

func (t *remoteTarget) get(path string) ([]byte, error) {
	resp, err := t.client.Get(t.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, raw)
	}
	return raw, nil
}

// Level is one concurrency level's results.
type Level struct {
	Clients     int     `json:"clients"`
	Requests    int64   `json:"requests"`
	DurationSec float64 `json:"duration_sec"`
	QPS         float64 `json:"qps"`
	P50Ms       float64 `json:"p50_ms"`
	P90Ms       float64 `json:"p90_ms"`
	P99Ms       float64 `json:"p99_ms"`
	MeanMs      float64 `json:"mean_ms"`
	// ProcessAllocsPerReq is the process-wide allocation delta per
	// request, reported only for in-process (-from) runs where the
	// server runs inside this process; in -url mode the delta would
	// count just the client and is omitted.
	ProcessAllocsPerReq float64          `json:"process_allocs_per_req,omitempty"`
	BytesPerReq         float64          `json:"bytes_per_req"`
	NotModified         int64            `json:"not_modified"`
	NotModifiedRatio    float64          `json:"not_modified_ratio"`
	Status              map[string]int64 `json:"status"`
	Errors              int64            `json:"errors"`
}

// PartialCacheSummary is the server's month-partial cache tally over
// the whole run (warmup included — the sliding-window mix does most of
// its partial reuse while the warmup walks the window set, after which
// the report LRU absorbs repeats).
type PartialCacheSummary struct {
	Hits     int64   `json:"hits"`
	Misses   int64   `json:"misses"`
	HitRatio float64 `json:"hit_ratio"`
}

// Output is the BENCH_load.json shape.
type Output struct {
	Target      string  `json:"target"`
	Mix         string  `json:"mix"`
	INMFraction float64 `json:"if_none_match_fraction"`
	Levels      []Level `json:"levels"`
	// PartialCache is present when the target's /v1/cache reports a
	// month-partial cache level, as every mevscope server does.
	PartialCache *PartialCacheSummary `json:"partial_cache,omitempty"`
}

// serverFailures counts what should fail CI: 5xx responses and
// transport errors.
func (o *Output) serverFailures() int64 {
	var n int64
	for _, l := range o.Levels {
		n += l.Status["5xx"] + l.Errors
	}
	return n
}

// run executes the full sweep: build the target, resolve the mix
// against it, warm it, then one timed run per concurrency level.
func run(cfg *config) (*Output, error) {
	var tgt target
	name := cfg.url
	if cfg.from != "" {
		srv, err := query.New(query.Config{
			Archive:        cfg.from,
			Workers:        cfg.parallel,
			AnalyzePartial: mevscope.AnalyzeDatasetPartial,
		})
		if err != nil {
			return nil, err
		}
		tgt = &inprocTarget{srv: srv}
		name = "in-process:" + cfg.from
	} else {
		tgt = &remoteTarget{base: cfg.url, client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        4096,
				MaxIdleConnsPerHost: 4096,
			},
		}}
	}

	if err := cfg.resolve(tgt); err != nil {
		return nil, err
	}

	// Warmup: one GET per distinct URL builds the report once and
	// captures each representation's validator for the conditional-GET
	// share of the run.
	etags := map[string]string{}
	for _, u := range cfg.urls() {
		status, etag, _, err := tgt.do(u, "")
		if err != nil {
			return nil, fmt.Errorf("warmup %s: %w", u, err)
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("warmup %s: status %d", u, status)
		}
		if etag != "" {
			etags[u] = etag
		}
	}

	out := &Output{Target: name, Mix: cfg.mixSpec, INMFraction: cfg.inm}
	for _, n := range cfg.clients {
		if !cfg.quiet {
			fmt.Fprintf(os.Stderr, "loadgen: %d clients for %v...\n", n, cfg.duration)
		}
		lvl := runLevel(*cfg, tgt, etags, n)
		if !cfg.quiet {
			fmt.Fprintf(os.Stderr, "loadgen: %d clients: %.0f qps, p50 %.2fms, p99 %.2fms, 304 ratio %.2f\n",
				n, lvl.QPS, lvl.P50Ms, lvl.P99Ms, lvl.NotModifiedRatio)
		}
		out.Levels = append(out.Levels, lvl)
	}
	out.PartialCache = partialCacheSummary(tgt)
	return out, nil
}

// partialCacheSummary reads the server's cumulative partial-cache
// counters off /v1/cache; nil when the endpoint is unreachable or
// reports no partials level.
func partialCacheSummary(tgt target) *PartialCacheSummary {
	raw, err := tgt.get("/v1/cache")
	if err != nil {
		return nil
	}
	var view struct {
		Partials *query.PartialCacheStats `json:"partials"`
	}
	if err := json.Unmarshal(raw, &view); err != nil || view.Partials == nil {
		return nil
	}
	s := &PartialCacheSummary{Hits: view.Partials.Hits, Misses: view.Partials.Misses}
	if total := s.Hits + s.Misses; total > 0 {
		s.HitRatio = float64(s.Hits) / float64(total)
	}
	return s
}

// runLevel hammers the target with n concurrent clients for the
// configured duration.
func runLevel(cfg config, tgt target, etags map[string]string, n int) Level {
	var (
		hist     query.Histogram
		requests atomic.Int64
		bytes    atomic.Int64
		notMod   atomic.Int64
		errors   atomic.Int64
		classes  [5]atomic.Int64
	)
	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	start := time.Now()
	deadline := start.Add(cfg.duration)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// Per-client deterministic stream: the mix and the
			// conditional-GET schedule replay identically run to run.
			rng := rand.New(rand.NewSource(int64(id) + 1))
			for time.Now().Before(deadline) {
				u := cfg.pick(rng)
				inm := ""
				if etag, ok := etags[u]; ok && rng.Float64() < cfg.inm {
					inm = etag
				}
				t0 := time.Now()
				status, _, nbytes, err := tgt.do(u, inm)
				hist.Observe(time.Since(t0))
				requests.Add(1)
				bytes.Add(nbytes)
				if err != nil {
					errors.Add(1)
					continue
				}
				if cls := status/100 - 1; cls >= 0 && cls < len(classes) {
					classes[cls].Add(1)
				}
				if status == http.StatusNotModified {
					notMod.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)

	total := requests.Load()
	lvl := Level{
		Clients:     n,
		Requests:    total,
		DurationSec: elapsed.Seconds(),
		P50Ms:       ms(hist.Quantile(0.50)),
		P90Ms:       ms(hist.Quantile(0.90)),
		P99Ms:       ms(hist.Quantile(0.99)),
		MeanMs:      ms(hist.Mean()),
		NotModified: notMod.Load(),
		Status:      map[string]int64{},
		Errors:      errors.Load(),
	}
	if elapsed > 0 {
		lvl.QPS = float64(total) / elapsed.Seconds()
	}
	if total > 0 {
		if _, inproc := tgt.(*inprocTarget); inproc {
			lvl.ProcessAllocsPerReq = float64(memAfter.Mallocs-memBefore.Mallocs) / float64(total)
		}
		lvl.BytesPerReq = float64(bytes.Load()) / float64(total)
		lvl.NotModifiedRatio = float64(notMod.Load()) / float64(total)
	}
	for c := range classes {
		if v := classes[c].Load(); v > 0 {
			lvl.Status[fmt.Sprintf("%dxx", c+1)] = v
		}
	}
	return lvl
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
