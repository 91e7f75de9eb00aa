package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mevscope"
	"mevscope/internal/archive"
	"mevscope/internal/core/measure"
	"mevscope/internal/dataset"
	"mevscope/internal/query"
	"mevscope/internal/types"
)

// The serve-mixed load: each fixed rate runs open-loop for an equal
// share of the timed phase, requests due on a fixed schedule. A rate is
// sustained when every request is sent, the 99th percentile latency,
// timed from when each request was due, stays within p99Limit and the
// last request completes within p99Limit of the rate's share (no growing
// backlog). From 400 req/s the rungs climb by 25% to well past the
// capacity measured on a 2-vCPU VM (400–625 req/s sustained, and once
// under 400), so the highest sustained rung follows the server one rung
// at a time.
var mixedRates = []float64{100, 300, 400, 500, 625, 781}

const (
	p99Limit = 150 * time.Millisecond
	// nominalRate is the rate whose latencies latency_p50_ms and
	// latency_p90_ms report.
	nominalRate = 100
	// floorRate caps the sustained rate throughput_per_s reports. On a
	// 2-vCPU VM the highest sustained rung moves by a rung or two, 25% or
	// more, between runs of the same code, too coarse a step to gate on;
	// capped at floorRate, a quarter below the lowest capacity seen, it
	// reads the same on every run and drops only when the server can no
	// longer sustain floorRate. Untraced runs therefore stop the ladder at
	// floorRate, giving the nominal rate more samples; traced runs climb
	// all of it for loadgen.capacity_per_s, the uncapped rung.
	floorRate = 300
)

// mixedViews are the observation views the key space spreads over.
var mixedViews = []string{"", "vantage:1", "union", "quorum:2"}

// mixKey is one report key: a month range under one view.
type mixKey struct {
	from, to types.Month
	view     string
}

func (k mixKey) query() string {
	q := "months=" + k.from.Label() + ".." + k.to.Label()
	if k.view != "" {
		q += "&view=" + k.view
	}
	return q
}

// mixRequest is one generated request. key indexes the key space by
// popularity rank; -1 marks a block lookup.
type mixRequest struct {
	url         string
	conditional bool
	key         int
}

// mixedRequests draws n requests. Month ranges × views are ranked by a
// shuffle and drawn Zipf-skewed — the top 16 keys take half the draws, no
// single key more than 6% — so a hot head of keys hits the 16-entry
// report LRU while the tail misses it and is assembled from cached month
// partials. Each request is a report (text/json), a full-analysis
// artifact (json/csv/text), a projected artifact, or a block lookup; 10%
// are sent conditionally.
//
// The stream — the key ranking and each request's rank, kind, format and
// condition — is drawn under a constant seed. A key's cost depends on
// which months it spans, and when the seed picked the keys, the median
// latency's spread over ten seeds of the same code was 23%. The workload
// seed picks the simulated world, which every response is computed
// from, and the blocks looked up, so seeds differ in data, not in how
// much of each kind of work they ask for.
func mixedRequests(seed int64, man *archive.Manifest, n int) ([]mixRequest, []mixKey) {
	rng := rand.New(rand.NewSource(seed))
	shape := rand.New(rand.NewSource(0))
	first, last := man.Window()
	var canonical []mixKey
	for from := first; from <= last; from++ {
		for to := from; to <= last; to++ {
			for _, v := range mixedViews {
				canonical = append(canonical, mixKey{from, to, v})
			}
		}
	}
	keys := make([]mixKey, len(canonical))
	for r, i := range shape.Perm(len(canonical)) {
		keys[r] = canonical[i]
	}
	var full, projected []string
	for _, name := range measure.ArtifactNames() {
		if measure.ProjectionColumns(name) != nil {
			projected = append(projected, name)
		} else {
			full = append(full, name)
		}
	}
	formats := []string{"json", "csv", "text"}
	zipf := rand.NewZipf(shape, 2, 16, uint64(len(keys)-1))
	reqs := make([]mixRequest, n)
	for i := range reqs {
		k := int(zipf.Uint64())
		q := keys[k].query()
		var u string
		switch p := shape.Float64(); {
		case p < 0.40:
			u = "/v1/report?format=" + []string{"text", "json"}[shape.Intn(2)] + "&" + q
		case p < 0.70:
			u = fmt.Sprintf("/v1/artifact/%s?format=%s&%s", full[shape.Intn(len(full))], formats[shape.Intn(3)], q)
		case p < 0.90:
			u = fmt.Sprintf("/v1/artifact/%s?format=json&%s", projected[shape.Intn(len(projected))], q)
		default:
			num := man.Segments[0].FirstBlock + uint64(rng.Int63n(int64(man.Head-man.Segments[0].FirstBlock+1)))
			u, k = fmt.Sprintf("/v1/block?number=%d", num), -1
		}
		reqs[i] = mixRequest{url: u, conditional: shape.Float64() < 0.1, key: k}
	}
	return reqs, keys
}

// mixSample is one request as the generator saw it.
type mixSample struct {
	req        int // index into the request stream
	resp       response
	latency    time.Duration // from due (or, after a sleep, from sent) to done
	lag        time.Duration // from due to sent
	service    time.Duration // from sent to done
	finish     time.Duration // from the rate's start to done
	traced     bool
	stepRate   float64
	stepFailed bool
}

// runServeMixed is steady-state serving: a long-lived server, warmed with
// one full-window report per view, answers a seeded stream of mixed
// requests at each fixed rate in turn, at most nproc in flight.
func runServeMixed(b *bench) error {
	var tr *tracer
	if b.traced {
		tr = newTracer()
	}
	var srv *query.Server
	var man *archive.Manifest
	dir, err := b.setup(func(dir string) error {
		var err error
		if man, err = archiveServeWorld(b.seed, dir); err != nil {
			return err
		}
		if srv, err = newServer(dir, tr); err != nil {
			return err
		}
		first, last := man.Window()
		for _, v := range mixedViews {
			k := mixKey{first, last, v}
			if rec := get(srv, "/v1/report?"+k.query(), "", nil); rec.Code != http.StatusOK {
				return fmt.Errorf("warm-up %s: status %d", k.query(), rec.Code)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	rates := mixedRates
	if !b.traced {
		rates = rates[:slices.Index(rates, floorRate)+1]
	}
	stepDur := b.run / time.Duration(len(rates))
	total := 0
	for _, r := range rates {
		total += stepRequests(r, stepDur)
	}
	reqs, keys := mixedRequests(b.seed, man, total)
	var (
		samples []mixSample
		etags   sync.Map // url → ETag of its 200
		cs      cacheStats
		allocs  uint64
	)
	err = b.timed(func() error {
		cs0, a0 := statsOf(srv), heapAllocs()
		next := 0
		for _, rate := range rates {
			n := stepRequests(rate, stepDur)
			step := runStep(srv, reqs[next:next+n], next, rate, stepDur, &etags, tr)
			samples = append(samples, step...)
			next += len(step)
		}
		cs, allocs = statsOf(srv).sub(cs0), heapAllocs()-a0
		return nil
	})
	if err != nil {
		return err
	}

	if err := b.checkMixed(dir, samples, reqs, keys); err != nil {
		return err
	}
	ladder := rateLadder(rates, samples, stepDur)
	b.set("latency_p50_ms", ms(quantile(ladder.nominal, 0.5)))
	b.set("latency_p90_ms", ms(quantile(ladder.nominal, 0.9)))
	b.set("throughput_per_s", ladder.floor)
	b.set("disk_bytes_per_block", float64(man.DataBytes())/float64(man.TotalBlocks))
	if tr == nil {
		return nil
	}
	var lags, plain, traced []time.Duration
	var resps []response
	for _, s := range samples {
		if s.stepRate == nominalRate {
			lags = append(lags, s.lag)
		}
		resps = append(resps, s.resp)
		if s.traced {
			traced = append(traced, s.service)
		} else {
			plain = append(plain, s.service)
		}
	}
	b.set("loadgen.lag_ms_p99", ms(quantile(lags, 0.99)))
	b.set("loadgen.latency_p99_ms", ms(quantile(ladder.nominal, 0.99)))
	b.set("loadgen.capacity_per_s", ladder.capacity)
	b.set("archive.data_bytes", float64(man.DataBytes()))
	b.setQueryLayer(tr, cs, resps, allocs)
	b.traceSummary(tr, plain, traced)
	return nil
}

// stepRequests is how many requests one step is given: its rate times
// its share of the timed phase, at least one.
func stepRequests(rate float64, stepDur time.Duration) int {
	return max(1, int(rate*stepDur.Seconds()))
}

// runStep sends reqs through nproc workers, so at most nproc requests
// are in flight. At a fixed rate request i is due at i/rate after the
// start, whether or not earlier ones have finished, and the rest queue.
// A rate still behind schedule p99Limit after its share of time sends no
// more: it is not sustained, and a growing backlog would only stretch the
// timed phase. In a traced run every other request is traced.
func runStep(srv http.Handler, reqs []mixRequest, offset int, rate float64, stepDur time.Duration, etags *sync.Map, tr *tracer) []mixSample {
	out := make([]mixSample, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := stepDur + p99Limit
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if time.Since(start) >= deadline {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				r := reqs[i]
				var inm string
				if r.conditional {
					if e, ok := etags.Load(r.url); ok {
						inm = e.(string)
					}
				}
				var reqTr *tracer
				if tr != nil && (offset+i)%2 == 1 {
					reqTr = tr
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				// A worker that had to wait for the due time sends late only
				// by its own timer slop, which is not the server's; a worker
				// already behind schedule sends late because the server kept
				// it busy, and that wait counts.
				from := due
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
					from = time.Now()
				}
				sent := time.Now()
				rec := get(srv, r.url, inm, reqTr)
				done := time.Now()
				resp := summarize(r.url, rec)
				if resp.status == http.StatusOK && resp.etag != "" {
					etags.LoadOrStore(r.url, resp.etag)
				}
				out[i] = mixSample{
					req: offset + i, resp: resp, latency: done.Sub(from), lag: sent.Sub(due),
					service: done.Sub(sent), finish: done.Sub(start), traced: reqTr != nil, stepRate: rate,
				}
			}
		}()
	}
	wg.Wait()
	return out[:min(int(next.Load()), len(reqs))]
}

// ladderResult is the load ladder's verdict.
type ladderResult struct {
	nominal  []time.Duration // latencies at nominalRate
	floor    float64         // completions/s at the highest rate up to floorRate meeting the limit
	capacity float64         // completions/s at the highest rate meeting the limit
}

// rateLadder evaluates each fixed rate against the p99 limit and prints
// one line per rate. Where no rate meets the limit, floor and capacity
// are the achieved rate of the lowest.
func rateLadder(rates []float64, samples []mixSample, stepDur time.Duration) ladderResult {
	var res ladderResult
	for _, rate := range rates {
		var lat []time.Duration
		var last time.Duration
		for _, s := range samples {
			if s.stepRate != rate {
				continue
			}
			l := s.latency
			if s.stepFailed {
				l = math.MaxInt64 // a failed request misses every limit
			}
			lat = append(lat, l)
			last = max(last, s.finish)
		}
		if len(lat) == 0 {
			continue // a rate cut short before its first request
		}
		achieved := float64(len(lat)) / last.Seconds()
		p50, p99 := quantile(lat, 0.5), quantile(lat, 0.99)
		meets := len(lat) == stepRequests(rate, stepDur) && p99 <= p99Limit && last <= stepDur+p99Limit
		fmt.Printf("rate %4.0f/s: %5d requests, p50 %8.3f ms, p99 %8.3f ms, achieved %7.1f/s, limit met: %v\n",
			rate, len(lat), ms(p50), ms(p99), achieved, meets)
		if meets || res.capacity == 0 {
			res.capacity = achieved
			if rate <= floorRate {
				res.floor = achieved
			}
		}
		if rate == nominalRate {
			res.nominal = lat
		}
	}
	return res
}

// checkMixed is serve-mixed's oracle, counted per request, run after the
// timed phase. Every request must come back 200 or 304; every 304 must
// carry the ETag its URL's 200 carried; and every 200 must carry its
// URL's first ETag and equal the library reference byte for byte.
func (b *bench) checkMixed(dir string, samples []mixSample, reqs []mixRequest, keys []mixKey) error {
	firstTag := map[string]string{}
	urlsOf := map[int][]string{} // key rank → its distinct URLs that came back 200; -1 for block lookups
	for _, s := range samples {
		u := s.resp.url
		if _, ok := firstTag[u]; ok || s.resp.status != http.StatusOK {
			continue
		}
		firstTag[u] = s.resp.etag
		k := reqs[s.req].key
		urlsOf[k] = append(urlsOf[k], u)
	}
	want, err := b.mixedReferences(dir, urlsOf, keys)
	if err != nil {
		return err
	}
	for i := range samples {
		s := &samples[i]
		tag, had200 := firstTag[s.resp.url]
		ok := false
		switch s.resp.status {
		case http.StatusOK:
			ok = s.resp.body == want[s.resp.url] && s.resp.etag == tag
		case http.StatusNotModified:
			ok = had200 && s.resp.etag == tag
		}
		s.stepFailed = !ok
		b.check(ok)
		if !ok && b.failed <= 5 && !b.perturb {
			fmt.Fprintf(os.Stderr, "oracle: %s: status %d, etag %q\n", s.resp.url, s.resp.status, s.resp.etag)
		}
	}
	return nil
}

// mixedReferences builds the library's answer to every URL of urlsOf and
// returns its digest by URL. Each month range is read once and each
// (range, view) key analyzed once, its report encoded for all the key's
// URLs; block lookups come from one full archive.Read.
func (b *bench) mixedReferences(dir string, urlsOf map[int][]string, keys []mixKey) (map[string][sha256.Size]byte, error) {
	want := map[string][sha256.Size]byte{}
	add := func(u string, body []byte) {
		if b.perturb {
			body = perturbed(body)
		}
		want[u] = sha256.Sum256(body)
	}
	if blocks := urlsOf[-1]; len(blocks) > 0 {
		restored, _, err := archive.Read(dir)
		if err != nil {
			return nil, err
		}
		for _, u := range blocks {
			body, err := encodeBlock(restored, u)
			if err != nil {
				return nil, err
			}
			add(u, body)
		}
	}
	var ranked []int
	for k := range urlsOf {
		if k >= 0 {
			ranked = append(ranked, k)
		}
	}
	sort.Slice(ranked, func(i, j int) bool {
		a, c := keys[ranked[i]], keys[ranked[j]]
		if a.from != c.from {
			return a.from < c.from
		}
		if a.to != c.to {
			return a.to < c.to
		}
		return a.view < c.view
	})
	var ds *dataset.Dataset
	for i, k := range ranked {
		key := keys[k]
		if i == 0 || keys[ranked[i-1]].from != key.from || keys[ranked[i-1]].to != key.to {
			var err error
			if ds, _, err = archive.ReadRange(dir, key.from, key.to); err != nil {
				return nil, err
			}
		}
		ds.View = key.view
		st, err := mevscope.AnalyzeDataset(ds, 0)
		if err != nil {
			return nil, err
		}
		for _, u := range urlsOf[k] {
			body, err := encodeLike(st.Report, u)
			if err != nil {
				return nil, err
			}
			add(u, body)
		}
	}
	return want, nil
}

// encodeBlock is the library's answer to a /v1/block URL: the restored
// chain's block, JSON-encoded as the server encodes it.
func encodeBlock(ds *dataset.Dataset, target string) ([]byte, error) {
	var num uint64
	if _, err := fmt.Sscanf(target, "/v1/block?number=%d", &num); err != nil {
		return nil, err
	}
	blk, err := ds.Chain.ByNumber(num)
	if err != nil {
		return nil, err
	}
	// A point lookup (archive.ReadBlockFrom) leaves an empty block's
	// transaction and receipt lists nil, so they encode as null where a
	// full restore's encode as []; the reference accepts that one
	// difference.
	b := *blk
	if len(b.Txs) == 0 {
		b.Txs, b.Receipts = nil, nil
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err = enc.Encode(&b)
	return buf.Bytes(), err
}
