package query_test

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mevscope"
	"mevscope/internal/core/measure"
	"mevscope/internal/dataset"
	"mevscope/internal/obs"
	"mevscope/internal/query"
)

// TestPanickingBuildFailsEveryWaiter pins the panic path both cache
// levels share. A live snapshot (report level, on the handler
// goroutine) and a month analysis (partial level, on a worker-pool
// goroutine, where an unrecovered panic would take the whole server
// down) each panic on their first call, while a burst of concurrent
// requests for one key waits on that build. Every request must come back
// a 500 naming the panic, none may hang, and — since nothing was cached
// for the failed build — the next request must rebuild and succeed.
//
// Determinism: the first call blocks on a gate that opens only once
// every request has registered its report-cache lookup. A lookup and
// joining the in-flight build are one step, so by then each request is
// the builder or one of its waiters, and all of them see the panic.
func TestPanickingBuildFailsEveryWaiter(t *testing.T) {
	const burst = 16
	cases := []struct {
		name string
		url  string
		cfg  func(first func()) query.Config
		live func(first func()) query.Live // nil: no live source
	}{
		{
			name: "report level",
			url:  "/v1/artifact/fig3?format=json&source=live",
			cfg: func(func()) query.Config {
				return query.Config{AnalyzePartial: mevscope.AnalyzeDatasetPartial}
			},
			live: func(first func()) query.Live {
				return query.Live{
					Height: func() uint64 { return 1 },
					Snapshot: func() (*measure.Report, uint64) {
						first()
						return &measure.Report{}, 1
					},
				}
			},
		},
		{
			name: "partial level",
			url:  "/v1/report?format=text&months=2021-01..2021-02",
			cfg: func(first func()) query.Config {
				return query.Config{
					AnalyzePartial: func(ds *dataset.Dataset, workers int, sp *obs.Span) (*measure.Partial, error) {
						first()
						return mevscope.AnalyzeDatasetPartial(ds, workers, sp)
					},
				}
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			release := make(chan struct{})
			var calls atomic.Int64
			first := func() {
				if calls.Add(1) == 1 {
					<-release
					panic("boom: " + tc.name)
				}
			}
			cfg := tc.cfg(first)
			cfg.Archive = testArchive(t)
			cfg.Workers = 2 // two missing months: the partial builds run on pool goroutines
			srv, err := query.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.live != nil {
				srv.SetLive(tc.live(first))
			}

			var wg sync.WaitGroup
			errs := make(chan string, burst)
			for i := 0; i < burst; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if code, body := get(t, srv, tc.url); code != http.StatusInternalServerError || !strings.Contains(body, "panic: boom: "+tc.name) {
						errs <- fmt.Sprintf("%s → %d: %s", tc.url, code, strings.TrimSpace(body))
					}
				}()
			}
			deadline := time.Now().Add(30 * time.Second)
			for srv.CacheStats().Misses < burst {
				if time.Now().After(deadline) {
					t.Fatalf("only %d of %d lookups registered before the deadline", srv.CacheStats().Misses, burst)
				}
				time.Sleep(time.Millisecond)
			}
			close(release)
			done := make(chan struct{})
			go func() {
				wg.Wait()
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("requests still waiting 30 s after the panicking build was released")
			}
			close(errs)
			for e := range errs {
				t.Errorf("want a 500 naming the panic: %s", e)
			}
			if st := srv.CacheStats(); st.Size != 0 {
				t.Errorf("report cache holds %d entries after a failed build, want 0", st.Size)
			}

			before := calls.Load()
			if code, body := get(t, srv, tc.url); code != http.StatusOK {
				t.Fatalf("request after the panic → %d: %s", code, body)
			}
			if calls.Load() == before {
				t.Error("request after the panic was served without rebuilding")
			}
		})
	}
}
