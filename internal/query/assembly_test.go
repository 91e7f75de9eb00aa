package query_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sync"
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

// Small archives of the two observation-network scenarios the
// assembly identity test runs over — four vantages, and one flaky
// vantage with outages — each simulated once per test process. They are
// smaller than the other fixtures so the test stays affordable under
// the race detector.
var (
	assemblyArchOnce sync.Once
	assemblyArchDir  string
	assemblyArchErr  error
)

func assemblyArchives(tb testing.TB) (multiVantage, degraded string) {
	tb.Helper()
	assemblyArchOnce.Do(func() {
		dir, err := os.MkdirTemp("", "mevscope-query-assembly-*")
		if err != nil {
			assemblyArchErr = err
			return
		}
		assemblyArchDir = dir
		for _, scenario := range []string{"multi-vantage-union", "degraded-observer"} {
			cfg, err := mevscope.Options{Seed: 9, BlocksPerMonth: 20, Scenario: scenario}.Config()
			if err != nil {
				assemblyArchErr = err
				return
			}
			s, err := sim.New(cfg)
			if err != nil {
				assemblyArchErr = err
				return
			}
			if err := s.Run(); err != nil {
				assemblyArchErr = err
				return
			}
			meta := map[string]string{"scenario": scenario, "seed": "9"}
			if _, err := archive.Write(dir+"/"+scenario, dataset.FromSim(s), meta); err != nil {
				assemblyArchErr = err
				return
			}
		}
	})
	if assemblyArchErr != nil {
		tb.Fatal(assemblyArchErr)
	}
	return assemblyArchDir + "/multi-vantage-union", assemblyArchDir + "/degraded-observer"
}

// newServeLikeServer configures a fresh server the way `mevscope serve`
// does: the month analysis hook, default caches, metrics on.
func newServeLikeServer(tb testing.TB, dir string, workers int) *query.Server {
	tb.Helper()
	srv, err := query.New(query.Config{
		Archive:        dir,
		AnalyzePartial: mevscope.AnalyzeDatasetPartial,
		Workers:        workers,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return srv
}

// monthRange is one requested month slice.
type monthRange struct{ from, to types.Month }

func (r monthRange) String() string { return r.from.Label() + ".." + r.to.Label() }

// referenceBodies memoizes the library's answer for a (range, view,
// format): archive.ReadRange, the view, AnalyzeDataset, and the measure
// encoders the server's /v1/report uses.
type referenceBodies struct {
	tb   testing.TB
	dir  string
	memo map[string][]byte
}

func (rb *referenceBodies) body(r monthRange, view, format string) []byte {
	key := r.String() + "|" + view + "|" + format
	if b, ok := rb.memo[key]; ok {
		return b
	}
	ds, _, err := archive.ReadRange(rb.dir, r.from, r.to)
	if err != nil {
		rb.tb.Fatal(err)
	}
	ds.View = view
	st, err := mevscope.AnalyzeDataset(ds, 2)
	if err != nil {
		rb.tb.Fatal(err)
	}
	var buf bytes.Buffer
	if format == "json" {
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(st.Report.Artifacts()); err != nil {
			rb.tb.Fatal(err)
		}
	} else {
		measure.WriteReportText(&buf, st.Report)
	}
	rb.memo[key] = buf.Bytes()
	return buf.Bytes()
}

// TestServeAssemblyByteIdentical is the query-level pin of partial
// assembly: a fresh server configured like `mevscope serve` — shared
// per-build archive state, missing months fanned across the worker
// pool — must serve every report byte-identical to the library's
// full-range analysis of the same slice. Each case starts from a cold
// server and mixes cached and missing months differently: the full
// window cold, then sliding 6-month windows over the warm months; single
// months first, then a range straddling the observation window's
// opening, one inside the window and the full window, whose missing
// months are non-contiguous.
// One server serves a case under every view the world supports in
// turn, so all but the first view merge partials another view analyzed;
// which view goes first rotates across the servers, which run at 1, 2
// and 4 workers.
func TestServeAssemblyByteIdentical(t *testing.T) {
	mv, deg := assemblyArchives(t)
	worlds := []struct{ name, dir string }{
		{"multi-vantage-union", mv},
		{"degraded-observer", deg},
	}
	for _, w := range worlds {
		t.Run(w.name, func(t *testing.T) {
			man, err := archive.ReadManifest(w.dir)
			if err != nil {
				t.Fatal(err)
			}
			first, last := man.Window()
			obsStart := types.ObservationStartMonth
			full := monthRange{first, last}
			coldThenSliding := []monthRange{full}
			for m := first; m+5 <= last; m++ {
				coldThenSliding = append(coldThenSliding, monthRange{m, m + 5})
			}
			gapped := []monthRange{
				{first, first}, {obsStart - 1, obsStart - 1}, {obsStart + 1, obsStart + 1}, {last, last},
				{obsStart - 2, obsStart + 2},
				{obsStart + 1, last},
				full,
			}
			cases := []struct {
				name   string
				ranges []monthRange
			}{
				{"cold-then-sliding", coldThenSliding},
				{"singles-then-gapped", gapped},
			}
			var views []string
			for _, view := range []string{"", "union", "vantage:1", "quorum:2"} {
				if dataset.CheckViewFor(view, len(man.Vantages)) == nil {
					views = append(views, view) // the world has enough vantages for it
				}
			}
			ref := &referenceBodies{tb: t, dir: w.dir, memo: map[string][]byte{}}
			rotation := 0
			for _, workers := range []int{1, 2, 4} {
				for _, tc := range cases {
					srv := newServeLikeServer(t, w.dir, workers)
					for i := range views {
						view := views[(rotation+i)%len(views)]
						for _, r := range tc.ranges {
							formats := []string{"text"}
							if r == full {
								formats = append(formats, "json")
							}
							for _, format := range formats {
								url := fmt.Sprintf("/v1/report?format=%s&months=%s&view=%s", format, r, view)
								code, body := get(t, srv, url)
								if code != http.StatusOK {
									t.Fatalf("%s → %d: %s", url, code, body)
								}
								if want := ref.body(r, view, format); body != string(want) {
									t.Errorf("view %q (%s first), workers %d, case %s: %s differs from the full-range analysis",
										view, views[rotation%len(views)], workers, tc.name, url)
								}
							}
						}
					}
					rotation++
				}
			}
			if len(man.Vantages) > 1 && bytes.Equal(ref.body(full, "union", "text"), ref.body(full, "vantage:1", "text")) {
				t.Error("union and vantage:1 reports are identical: the world is too small for views to matter")
			}
		})
	}
}

// TestColdBuildChunkLookupsLinear pins the cold full-window build
// against a return of per-month re-reads: restoring each month's
// observation network from scratch made chunk reads grow with the
// square of the months. A build that restores the shared state once and
// then reads each month's own chunks decodes each archive chunk exactly
// once — its trace holds one archive:column span per chunk in the
// manifest — and leaves the month level behind /v1/block untouched.
func TestColdBuildChunkLookupsLinear(t *testing.T) {
	dir, _ := assemblyArchives(t)
	man, err := archive.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	chunks := map[string]bool{}
	for _, si := range man.Segments {
		for _, ci := range si.Columns {
			chunks[si.Label+"/"+ci.Name] = true
		}
	}
	first, last := man.Window()
	for _, workers := range []int{0, 1, 4} {
		srv := newServeLikeServer(t, dir, workers)
		if code, body := get(t, srv, "/v1/report"); code != http.StatusOK {
			t.Fatalf("workers %d: full window → %d: %s", workers, code, body)
		}
		if st := srv.SegmentCacheStats(); st.Hits != 0 || st.Misses != 0 {
			t.Errorf("workers %d: cold full-window build made %d hits and %d misses in the month level, want none",
				workers, st.Hits, st.Misses)
		}
		tr := obs.New("build")
		if _, err := query.Assemble(dir, man, first, last, "", mevscope.AnalyzeDatasetPartial, workers, tr.Root()); err != nil {
			t.Fatal(err)
		}
		decoded := map[string]int{}
		for _, sp := range tr.Spans() {
			if sp.Name() == obs.StageColumn {
				decoded[sp.Label()]++
			}
		}
		for name, n := range decoded {
			if !chunks[name] || n != 1 {
				t.Errorf("workers %d: the build decoded %s %d times, want once for a chunk of the manifest", workers, name, n)
			}
		}
		if len(decoded) != len(chunks) {
			t.Errorf("workers %d: the build decoded %d of the manifest's %d chunks", workers, len(decoded), len(chunks))
		}
	}
}
