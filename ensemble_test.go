package mevscope

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"mevscope/internal/core/measure"
)

// pinnedEnsembles are the ensembles whose -seeds text and merged cells
// are pinned under testdata/ensemble_<name>.{txt,json}. The files were
// captured from the hand-written per-section merge that preceded
// measure.MergeArtifacts; the JSON is that merge's five ensemble_*
// artifacts.
var pinnedEnsembles = []struct {
	name  string
	base  Options
	seeds []int64
}{
	// TestRunEnsembleSeedOrderIndependence's world.
	{"baseline_s3-5-9_bpm30", Options{BlocksPerMonth: 30, Scenario: "baseline"}, []int64{3, 5, 9}},
	// No observation window: no Figure 9 section.
	{"noflashbots_s4-8_bpm20_m12", Options{BlocksPerMonth: 20, Months: 12, Scenario: "no-flashbots"}, []int64{4, 8}},
	// One seed's Figure 9 window sees no sandwich: "(3/4 runs)".
	{"baseline_s1-4_bpm10_m19", Options{BlocksPerMonth: 10, Months: 19, Scenario: "baseline"}, []int64{1, 2, 3, 4}},
}

// pinnedArtifact is the wire shape of one captured artifact; numeric
// cells are {"mean": …, "std": …} objects.
type pinnedArtifact struct {
	Name    string
	Columns []struct{ Name string }
	Rows    [][]json.RawMessage
	Scalars map[string]json.RawMessage
}

type pinnedCell struct{ Mean, Std float64 }

// TestEnsembleMatchesPinned: the -seeds text of every pinned ensemble
// equals the captured text byte for byte, every mean and standard
// deviation of its five sections equals the captured one bit for bit, and
// its merged artifacts mirror the report's.
func TestEnsembleMatchesPinned(t *testing.T) {
	for _, c := range pinnedEnsembles {
		t.Run(c.name, func(t *testing.T) {
			ens, err := RunEnsembleWith(c.base, c.seeds, 2)
			if err != nil {
				t.Fatal(err)
			}
			stem := filepath.Join("testdata", "ensemble_"+c.name)
			wantText, err := os.ReadFile(stem + ".txt")
			if err != nil {
				t.Fatal(err)
			}
			if got := ens.Format(); got != string(wantText) {
				t.Errorf("-seeds text drifted:\n--- got ---\n%s\n--- pinned ---\n%s", got, wantText)
			}
			raw, err := os.ReadFile(stem + ".json")
			if err != nil {
				t.Fatal(err)
			}
			var pinned []pinnedArtifact
			if err := json.Unmarshal(raw, &pinned); err != nil {
				t.Fatal(err)
			}
			checkPinnedCells(t, ens, pinned)
			checkMirrorsReport(t, ens)
		})
	}
}

// checkPinnedCells compares each pinned cell with its merged counterpart
// via math.Float64bits.
func checkPinnedCells(t *testing.T, ens *Ensemble, pinned []pinnedArtifact) {
	t.Helper()
	merged := map[string]measure.Artifact{}
	for _, a := range ens.Artifacts() {
		merged[a.Name] = a
	}
	pins := map[string]pinnedArtifact{}
	for _, p := range pinned {
		pins[p.Name] = p
	}
	cells := 0
	check := func(where string, got measure.Value, raw json.RawMessage) {
		t.Helper()
		cells++
		var want pinnedCell
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		if !got.HasStd || math.Float64bits(got.Float) != math.Float64bits(want.Mean) ||
			math.Float64bits(got.Std) != math.Float64bits(want.Std) {
			t.Errorf("%s = %v ± %v (annotated %v), pinned %v ± %v", where, got.Float, got.Std, got.HasStd, want.Mean, want.Std)
		}
	}

	// Table 1 and the monthly series: row by row, keyed by the first cell.
	for _, m := range []struct {
		pinned, merged string
		rename         map[string]string
	}{
		{"ensemble_table1", "table1", nil},
		{"ensemble_fig3", "fig3", nil},
		{"ensemble_fig4", "fig4", map[string]string{"hashrate": "flashbots_hashrate"}},
	} {
		p, a := pins[m.pinned], merged[m.merged]
		if len(a.Rows) != len(p.Rows) {
			t.Fatalf("%s has %d rows, pinned %d", m.merged, len(a.Rows), len(p.Rows))
		}
		for i, prow := range p.Rows {
			var key string
			if err := json.Unmarshal(prow[0], &key); err != nil {
				t.Fatal(err)
			}
			if got := a.Rows[i][0].Text(); got != key {
				t.Fatalf("%s row %d = %q, pinned %q", m.merged, i, got, key)
			}
			for j, col := range p.Columns[1:] {
				name := col.Name
				if to, ok := m.rename[name]; ok {
					name = to
				}
				check(fmt.Sprintf("%s %s %s", m.merged, key, name), a.Rows[i][a.Column(name)], prow[j+1])
			}
		}
	}

	// Figure 9: the three channel shares over the runs with a window.
	p9, f9 := pins["ensemble_fig9"], merged["fig9"]
	var runs int64
	if err := json.Unmarshal(p9.Scalars["runs"], &runs); err != nil {
		t.Fatal(err)
	}
	if runs == 0 && len(f9.Rows) != 0 {
		t.Errorf("fig9 has %d rows, pinned no run with a window", len(f9.Rows))
	}
	if runs > 0 {
		if len(f9.Rows) != 3 {
			t.Fatalf("fig9 has %d rows, want 3 channels", len(f9.Rows))
		}
		for i, ch := range []string{"flashbots_share", "private_share", "public_share"} {
			row := f9.Rows[i]
			if got := row[f9.Column("seeds")].Int; got != runs {
				t.Errorf("fig9 %s seeds = %d, pinned runs %d", row[0].Str, got, runs)
			}
			check("fig9 "+row[0].Str, row[f9.Column("share")], p9.Scalars[ch])
		}
	}

	// Headline scalars.
	ps := pins["ensemble_scalars"]
	for _, s := range []struct{ pinned, artifact, scalar string }{
		{"bundles_per_block", "bundles", "bundles_per_block_mean"},
		{"negative_share", "negatives", "share"},
		{"top2_share", "concentration", "top2_share"},
	} {
		check(s.artifact+" "+s.scalar, merged[s.artifact].Scalar(s.scalar), ps.Scalars[s.pinned])
	}
	t.Logf("%d cells equal the pinned merge bit for bit", cells)
}

// checkMirrorsReport: the merged view carries the report's artifact
// names in paper order, every numeric cell as mean ± stddev, and a seeds
// column on every row artifact.
func checkMirrorsReport(t *testing.T, ens *Ensemble) {
	t.Helper()
	want := ens.Reports[0].Artifacts()
	got := ens.Artifacts()
	if len(got) != len(want) {
		t.Fatalf("%d artifacts, report has %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i].Name {
			t.Errorf("artifact %d = %s, report has %s", i, a.Name, want[i].Name)
		}
		if len(a.Columns) > 0 && a.Columns[len(a.Columns)-1] != (measure.Column{Name: "seeds", Kind: measure.KindInt}) {
			t.Errorf("%s: last column %v, want seeds", a.Name, a.Columns[len(a.Columns)-1])
		}
		for _, row := range a.Rows {
			for ci, v := range row[:len(row)-1] {
				if (v.Kind == measure.KindInt || v.Kind == measure.KindFloat) && !v.HasStd {
					t.Errorf("%s column %s: numeric cell %+v has no std", a.Name, a.Columns[ci].Name, v)
				}
			}
		}
		for _, s := range a.Scalars {
			if (s.Value.Kind == measure.KindInt || s.Value.Kind == measure.KindFloat) && !s.Value.HasStd {
				t.Errorf("%s scalar %s has no std", a.Name, s.Name)
			}
		}
	}
	if _, ok := ens.Artifact("no-such-artifact"); ok {
		t.Error("unknown artifact name reported present")
	}
}
