package mevscope

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"runtime"
	"testing"

	"mevscope/internal/archive"
	"mevscope/internal/core/measure"
	"mevscope/internal/dataset"
	"mevscope/internal/p2p"
	"mevscope/internal/types"
)

// renderReport is the byte-identity oracle: the full text rendering
// touches every artifact at full precision.
func renderReport(t *testing.T, rep *measure.Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	measure.WriteReportText(&buf, rep)
	return buf.Bytes()
}

// monthPartials analyzes every month of [from, to] alone under view —
// the query layer's partial path, minus the caches.
func monthPartials(t testing.TB, dir string, from, to types.Month, view string) []*measure.Partial {
	t.Helper()
	var parts []*measure.Partial
	for m := from; m <= to; m++ {
		ds, _, err := archive.ReadRange(dir, m, m)
		if err != nil {
			t.Fatalf("month %s: %v", m.Label(), err)
		}
		ds.View = view
		p, err := AnalyzeDatasetPartial(ds, 2, nil)
		if err != nil {
			t.Fatalf("month %s: %v", m.Label(), err)
		}
		parts = append(parts, p)
	}
	return parts
}

// archivedPartials simulates a world, archives it and analyzes every
// archived month alone into a partial, in month order.
func archivedPartials(tb testing.TB, opts Options) []*measure.Partial {
	tb.Helper()
	st, err := Run(opts)
	if err != nil {
		tb.Fatal(err)
	}
	dir := tb.TempDir()
	man, err := archive.Write(dir, dataset.FromSim(st.Sim), nil)
	if err != nil {
		tb.Fatal(err)
	}
	first, last := man.Window()
	return monthPartials(tb, dir, first, last, "")
}

// jsonRoundTrip passes each partial through its JSON encoding.
func jsonRoundTrip(t *testing.T, parts []*measure.Partial) []*measure.Partial {
	t.Helper()
	out := make([]*measure.Partial, len(parts))
	for i, p := range parts {
		raw, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("month %s: marshal partial: %v", p.Month.Label(), err)
		}
		out[i] = &measure.Partial{}
		if err := json.Unmarshal(raw, out[i]); err != nil {
			t.Fatalf("month %s: unmarshal partial: %v", p.Month.Label(), err)
		}
	}
	return out
}

// TestPartialAssemblyByteIdentical is the correctness pin of the
// month-partial memoization: for every scenario × view × range, a
// report assembled from single-month partials must be byte-identical
// to the full-range analysis. Each month is analyzed once, under a view
// no merge asks for, and its partial merged under every view, so a
// partial must serve views it was not analyzed under; the first range
// merges JSON round trips of the partials, proving the serialized form
// loses nothing a merge reads.
func TestPartialAssemblyByteIdentical(t *testing.T) {
	cases := []struct {
		scenario string
		analyzed string // the view every month is analyzed under
		views    []string
	}{
		{"", "union", []string{""}},
		{"degraded-observer", "union", []string{""}},
		{"multi-vantage-union", "vantage:2", []string{"", "union", "vantage:1", "quorum:2"}},
	}
	rng := rand.New(rand.NewSource(42))
	for _, tc := range cases {
		name := tc.scenario
		if name == "" {
			name = "baseline"
		}
		t.Run(name, func(t *testing.T) {
			st, err := Run(Options{Seed: 7, BlocksPerMonth: 50, Scenario: tc.scenario})
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			ds := dataset.FromSim(st.Sim)
			man, err := archive.Write(dir, ds, nil)
			if err != nil {
				t.Fatal(err)
			}
			first, last := man.Window()

			type span struct{ from, to types.Month }
			ranges := []span{
				{first, last},                            // the whole study
				{last, last},                             // a single month
				{types.ObservationStartMonth - 1, last},  // straddles the window opening
				{first, types.ObservationStartMonth - 1}, // entirely before the window
				{types.ObservationStartMonth + 1, last},  // entirely inside the window
			}
			for i := 0; i < 3; i++ {
				a := first + types.Month(rng.Intn(int(last-first+1)))
				b := first + types.Month(rng.Intn(int(last-first+1)))
				if a > b {
					a, b = b, a
				}
				ranges = append(ranges, span{a, b})
			}
			parts := monthPartials(t, dir, first, last, tc.analyzed)
			roundTripped := jsonRoundTrip(t, parts)

			for _, view := range tc.views {
				for ri, r := range ranges {
					fds, _, err := archive.ReadRange(dir, r.from, r.to)
					if err != nil {
						t.Fatal(err)
					}
					fds.View = view
					fst, err := AnalyzeDataset(fds, 2)
					if err != nil {
						t.Fatal(err)
					}
					want := renderReport(t, fst.Report)
					// Merge the JSON round trips on the first range of
					// each view, the in-memory partials on the rest.
					src := parts
					if ri == 0 {
						src = roundTripped
					}
					rep, err := measure.MergePartials(src[r.from-first:r.to-first+1], view, nil)
					if err != nil {
						t.Fatalf("merge %s..%s: %v", r.from.Label(), r.to.Label(), err)
					}
					got := renderReport(t, rep)
					if !bytes.Equal(got, want) {
						gotLines := bytes.Split(got, []byte("\n"))
						wantLines := bytes.Split(want, []byte("\n"))
						for j := 0; j < len(gotLines) || j < len(wantLines); j++ {
							g, w := []byte("<missing>"), []byte("<missing>")
							if j < len(gotLines) {
								g = gotLines[j]
							}
							if j < len(wantLines) {
								w = wantLines[j]
							}
							if !bytes.Equal(g, w) {
								t.Fatalf("view %q months %s..%s: assembled report drifted at line %d:\n got: %s\nwant: %s",
									view, r.from.Label(), r.to.Label(), j+1, g, w)
							}
						}
						t.Fatalf("view %q months %s..%s: assembled report drifted", view, r.from.Label(), r.to.Label())
					}
				}
			}
		})
	}
}

// TestPartialRejectsMultiMonthDataset pins NewPartial's contract: the
// memoization unit is exactly one month.
func TestPartialRejectsMultiMonthDataset(t *testing.T) {
	st, err := Run(Options{Seed: 7, BlocksPerMonth: 50})
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.FromSim(st.Sim)
	if _, err := AnalyzeDatasetPartial(ds, 2, nil); err == nil {
		t.Fatal("AnalyzeDatasetPartial accepted a full-study dataset")
	}
}

// TestMergePartialsRejectsGaps pins the contiguity contract: merging
// month 0 with month 2 must fail, not silently mis-assemble.
func TestMergePartialsRejectsGaps(t *testing.T) {
	st, err := Run(Options{Seed: 7, BlocksPerMonth: 50})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := archive.Write(dir, dataset.FromSim(st.Sim), nil); err != nil {
		t.Fatal(err)
	}
	var parts []*measure.Partial
	for _, m := range []types.Month{0, 2} {
		ds, _, err := archive.ReadRange(dir, m, m)
		if err != nil {
			t.Fatal(err)
		}
		p, err := AnalyzeDatasetPartial(ds, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, p)
	}
	if _, err := measure.MergePartials(parts, "", nil); err == nil {
		t.Fatal("MergePartials accepted non-contiguous months")
	}
	if _, err := measure.MergePartials(nil, "", nil); err == nil {
		t.Fatal("MergePartials accepted zero partials")
	}
}

// TestMergePartialsRejectsMismatchedCaptures pins the capture contract
// of a merge: a capture without a matching coverage table, and months
// that capture different vantage counts, are errors, never panics.
func TestMergePartialsRejectsMismatchedCaptures(t *testing.T) {
	st, err := Run(Options{Seed: 7, BlocksPerMonth: 20, Scenario: "multi-vantage-union"})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	man, err := archive.Write(dir, dataset.FromSim(st.Sim), nil)
	if err != nil {
		t.Fatal(err)
	}
	_, last := man.Window()
	parts := monthPartials(t, dir, last-1, last, "")
	if _, err := measure.MergePartials(parts, "union", nil); err != nil {
		t.Fatalf("consistent partials: %v", err)
	}
	uncovered := *parts[1]
	uncovered.Coverage = p2p.Coverage{}
	narrowed := *parts[1]
	narrowed.Captures = narrowed.Captures[:1]
	narrowed.Coverage.Vantages = narrowed.Coverage.Vantages[:1]
	narrowedFirst := *parts[0]
	narrowedFirst.Captures = narrowedFirst.Captures[:1]
	narrowedFirst.Coverage.Vantages = narrowedFirst.Coverage.Vantages[:1]
	for _, tc := range []struct {
		name  string
		parts []*measure.Partial
	}{
		{"a capture without a coverage table", []*measure.Partial{parts[0], &uncovered}},
		{"fewer vantages in the later month", []*measure.Partial{parts[0], &narrowed}},
		{"fewer vantages in the earlier month", []*measure.Partial{&narrowedFirst, parts[1]}},
	} {
		if _, err := measure.MergePartials(tc.parts, "union", nil); err == nil {
			t.Errorf("%s: MergePartials accepted it", tc.name)
		}
	}
}

// TestPartialSizeBytesCoversHeap pins the partial cache's byte
// accounting to the heap: the partials of every month of a 1-vantage
// and a 4-vantage world must report at least the heap they retain, and
// at most half again as much.
func TestPartialSizeBytesCoversHeap(t *testing.T) {
	for _, scenario := range []string{"", "multi-vantage-union"} {
		st, err := Run(Options{Seed: 7, BlocksPerMonth: 50, Scenario: scenario})
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		man, err := archive.Write(dir, dataset.FromSim(st.Sim), nil)
		if err != nil {
			t.Fatal(err)
		}
		first, last := man.Window()
		parts := make([]*measure.Partial, 0, last-first+1)
		heap := func() int64 {
			var ms runtime.MemStats
			// Two cycles: the second frees what the first left in
			// sync.Pool victim caches.
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&ms)
			return int64(ms.HeapAlloc)
		}
		before := heap()
		for m := first; m <= last; m++ {
			ds, _, err := archive.ReadRange(dir, m, m)
			if err != nil {
				t.Fatal(err)
			}
			p, err := AnalyzeDatasetPartial(ds, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			parts = append(parts, p)
		}
		retained := heap() - before
		var sized int64
		for _, p := range parts {
			sized += p.SizeBytes()
		}
		ratio := float64(sized) / float64(retained)
		t.Logf("scenario %q: %d partials size %d B, retain %d B (ratio %.3f)", scenario, len(parts), sized, retained, ratio)
		if ratio < 1 || ratio > 1.5 {
			t.Errorf("scenario %q: partials size %d B but retain %d B of heap (ratio %.2f, want 1..1.5)",
				scenario, sized, retained, ratio)
		}
	}
}

// TestMergePartialsAllocs bounds a full-window merge's allocations on a
// 4-vantage world. A merge combines each month's frozen summary, so its
// allocations grow with the months and vantages merged, not with the
// blocks, Flashbots records or bundles the months hold.
func TestMergePartialsAllocs(t *testing.T) {
	parts := archivedPartials(t, Options{Seed: 1, BlocksPerMonth: 50, Vantages: 4})
	var err error
	allocs := testing.AllocsPerRun(5, func() {
		_, err = measure.MergePartials(parts, "", nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("full-window merge of %d partials: %.0f allocations", len(parts), allocs)
	if allocs > mergeAllocsBound {
		t.Errorf("full-window merge allocates %.0f times, want ≤ %d", allocs, mergeAllocsBound)
	}
}

// mergeAllocsBound is TestMergePartialsAllocs's ceiling: a merge that
// combines month summaries measured 579 allocations on its world, one
// that re-derived them from every block, Flashbots record and bundle
// 2,141.
const mergeAllocsBound = 900
