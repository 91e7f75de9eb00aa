package measure

import (
	"testing"

	"mevscope/internal/stats"
)

// mergeRun builds one run's artifact: month/vantage/observed rows plus
// a numeric and a non-numeric scalar.
func mergeRun(view string, rows ...[]Value) Artifact {
	return Artifact{
		Name:    "vantage_sensitivity",
		Title:   "per-vantage coverage",
		Columns: []Column{{"month", KindMonth}, {"vantage", KindInt}, {"coverage", KindFloat}},
		Rows:    rows,
		Scalars: []Scalar{{"vantages", cint(2)}, {"view", str(view)}},
	}
}

func TestMergeArtifactsSingleRun(t *testing.T) {
	run := mergeRun("union",
		[]Value{cmonth(18), cint(0), cfloat(0.5)},
		[]Value{cmonth(18), cint(1), cfloat(0.25)},
	)
	got := MergeArtifacts([]Artifact{run})
	if got.Name != run.Name || got.Title != run.Title {
		t.Errorf("name/title = %q/%q", got.Name, got.Title)
	}
	if len(got.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(got.Rows))
	}
	want := [][]Value{
		{cmonth(18), MeanStd(0, 0), MeanStd(0.5, 0), cint(1)},
		{cmonth(18), MeanStd(1, 0), MeanStd(0.25, 0), cint(1)},
	}
	for ri, row := range got.Rows {
		if len(row) != len(want[ri]) {
			t.Fatalf("row %d = %+v, want %+v", ri, row, want[ri])
		}
		for ci := range row {
			if row[ci] != want[ri][ci] {
				t.Errorf("row %d %s = %+v, want %+v", ri, got.Columns[ci].Name, row[ci], want[ri][ci])
			}
		}
	}
	if v := got.Scalar("vantages"); v != MeanStd(2, 0) {
		t.Errorf("vantages = %+v, want 2 ± 0", v)
	}
	if v := got.Scalar("view"); v != str("union") {
		t.Errorf("view = %+v, want the run's own value", v)
	}
}

func TestMergeArtifactsIntColumnsBecomeFloat(t *testing.T) {
	got := MergeArtifacts([]Artifact{mergeRun("union"), mergeRun("union")})
	want := []Column{{"month", KindMonth}, {"vantage", KindFloat}, {"coverage", KindFloat}, {"seeds", KindInt}}
	if len(got.Columns) != len(want) {
		t.Fatalf("columns = %v, want %v", got.Columns, want)
	}
	for i := range want {
		if got.Columns[i] != want[i] {
			t.Errorf("column %d = %v, want %v", i, got.Columns[i], want[i])
		}
	}
	if len(got.Rows) != 0 {
		t.Errorf("rows = %v, want none", got.Rows)
	}
}

func TestMergeArtifactsRowMissingFromOneRun(t *testing.T) {
	runs := []Artifact{
		mergeRun("union", []Value{cmonth(18), cint(0), cfloat(0.2)}, []Value{cmonth(19), cint(0), cfloat(0.4)}),
		mergeRun("union", []Value{cmonth(18), cint(0), cfloat(0.6)}),
		mergeRun("union", []Value{cmonth(18), cint(0), cfloat(0.4)}, []Value{cmonth(19), cint(0), cfloat(0.8)}),
	}
	got := MergeArtifacts(runs)
	if len(got.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(got.Rows))
	}
	seeds, cov := got.Column("seeds"), got.Column("coverage")
	if m, n := got.Rows[0][0].Month, got.Rows[0][seeds].Int; m != 18 || n != 3 {
		t.Errorf("first row = month %v over %d runs, want 18 over 3", m, n)
	}
	if m, n := got.Rows[1][0].Month, got.Rows[1][seeds].Int; m != 19 || n != int64(len(runs)-1) {
		t.Errorf("second row = month %v over %d runs, want 19 over %d", m, n, len(runs)-1)
	}
	want := stats.Summarize([]float64{0.4, 0.8})
	if c := got.Rows[1][cov]; c != MeanStd(want.Mean, want.Std) {
		t.Errorf("month 19 coverage = %v ± %v, want %v ± %v over its two runs", c.Float, c.Std, want.Mean, want.Std)
	}
}

func TestMergeArtifactsRowsSharingAMonthStayApart(t *testing.T) {
	runs := []Artifact{
		mergeRun("union", []Value{cmonth(18), cint(0), cfloat(0.1)}, []Value{cmonth(18), cint(1), cfloat(0.9)}),
		mergeRun("union", []Value{cmonth(18), cint(0), cfloat(0.3)}, []Value{cmonth(18), cint(1), cfloat(0.7)}),
	}
	got := MergeArtifacts(runs)
	if len(got.Rows) != 2 {
		t.Fatalf("rows = %d, want one per vantage", len(got.Rows))
	}
	vantage, cov, seeds := got.Column("vantage"), got.Column("coverage"), got.Column("seeds")
	for i, xs := range [][]float64{{0.1, 0.3}, {0.9, 0.7}} {
		row := got.Rows[i]
		if row[vantage] != MeanStd(float64(i), 0) {
			t.Errorf("row %d vantage = %+v, want %d ± 0", i, row[vantage], i)
		}
		if want := stats.Summarize(xs); row[cov] != MeanStd(want.Mean, want.Std) {
			t.Errorf("row %d coverage = %v ± %v, want %v ± %v", i, row[cov].Float, row[cov].Std, want.Mean, want.Std)
		}
		if row[seeds].Int != 2 {
			t.Errorf("row %d seeds = %d, want 2", i, row[seeds].Int)
		}
	}
}

func TestMergeArtifactsScalars(t *testing.T) {
	agree := MergeArtifacts([]Artifact{mergeRun("union"), mergeRun("union")})
	if v := agree.Scalar("view"); v != str("union") {
		t.Errorf("agreed view = %+v, want kept", v)
	}
	split := MergeArtifacts([]Artifact{mergeRun("union"), mergeRun("vantage:1")})
	for _, s := range split.Scalars {
		if s.Name == "view" {
			t.Errorf("view kept as %+v though the runs disagree", s.Value)
		}
	}
	if v := split.Scalar("vantages"); v != MeanStd(2, 0) {
		t.Errorf("vantages = %+v, want 2 ± 0", v)
	}
	if got := MergeArtifacts(nil); got.Name != "" || got.Rows != nil || got.Scalars != nil {
		t.Errorf("merge of no runs = %+v, want the zero artifact", got)
	}
}
