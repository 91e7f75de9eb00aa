package mevscope

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"mevscope/internal/archive"
	"mevscope/internal/core/measure"
	"mevscope/internal/dataset"
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

// analyzeRangePartials analyzes each month of [from, to] alone and
// merges the partials — the query layer's assembly path, minus the
// caches.
func analyzeRangePartials(t *testing.T, dir string, from, to types.Month, view string, roundTrip bool) *measure.Report {
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
		if roundTrip {
			raw, err := json.Marshal(p)
			if err != nil {
				t.Fatalf("month %s: marshal partial: %v", m.Label(), err)
			}
			rt := &measure.Partial{}
			if err := json.Unmarshal(raw, rt); err != nil {
				t.Fatalf("month %s: unmarshal partial: %v", m.Label(), err)
			}
			p = rt
		}
		parts = append(parts, p)
	}
	rep, err := measure.MergePartials(parts, view, 2, nil)
	if err != nil {
		t.Fatalf("merge %s..%s: %v", from.Label(), to.Label(), err)
	}
	return rep
}

// TestPartialAssemblyByteIdentical is the correctness pin of the
// month-partial memoization: for every scenario × view × range, a
// report assembled from single-month partials must be byte-identical
// to the full-range analysis — including a JSON round trip of every
// partial, proving the serialized form loses nothing a merge reads.
func TestPartialAssemblyByteIdentical(t *testing.T) {
	cases := []struct {
		scenario string
		views    []string
	}{
		{"", []string{""}},
		{"degraded-observer", []string{""}},
		{"multi-vantage-union", []string{"", "union", "vantage:1", "quorum:2"}},
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
			}
			for i := 0; i < 3; i++ {
				a := first + types.Month(rng.Intn(int(last-first+1)))
				b := first + types.Month(rng.Intn(int(last-first+1)))
				if a > b {
					a, b = b, a
				}
				ranges = append(ranges, span{a, b})
			}

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
					// Round-trip every partial through JSON on the first
					// range of each view; merge in-memory partials on the
					// rest.
					got := renderReport(t, analyzeRangePartials(t, dir, r.from, r.to, view, ri == 0))
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
	if _, err := measure.MergePartials(parts, "", 2, nil); err == nil {
		t.Fatal("MergePartials accepted non-contiguous months")
	}
	if _, err := measure.MergePartials(nil, "", 2, nil); err == nil {
		t.Fatal("MergePartials accepted zero partials")
	}
}
