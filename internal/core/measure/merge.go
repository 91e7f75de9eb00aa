package measure

// Ensemble merge: the same artifact from several seeded runs folds into
// one artifact whose numeric cells carry the mean and standard deviation
// across the runs. The merge reads only the artifact model, so every
// artifact of the report has an ensemble form without a per-artifact
// merge.

import (
	"fmt"
	"strings"

	"mevscope/internal/stats"
)

// MergeArtifacts merges one artifact per run, given in ascending seed
// order, into a single artifact. The runs are the same artifact of one
// configuration, so they share a schema.
//
// Every int or float cell becomes MeanStd over the runs that hold its
// row (stats.Summarize), and every numeric column becomes a float
// column: identity ints such as vantage or node merge to themselves with
// sd 0. A row's identity is its non-numeric cells (month, strategy, kind,
// channel, account) plus its position among the rows of its run that
// share them, which keeps vantage_sensitivity's per-vantage rows of one
// month apart. Rows come out in first-appearance order over the runs in
// order, and a trailing int column, seeds, counts the runs holding each
// row.
//
// Scalars merge by name: a numeric one becomes MeanStd over the runs
// holding it; a non-numeric one is kept only when every run holds the
// same value.
func MergeArtifacts(runs []Artifact) Artifact {
	if len(runs) == 0 {
		return Artifact{}
	}
	out := Artifact{Name: runs[0].Name, Title: runs[0].Title}
	numeric := make([]bool, len(runs[0].Columns))
	for i, c := range runs[0].Columns {
		if numeric[i] = isNumeric(c.Kind); numeric[i] {
			c.Kind = KindFloat
		}
		out.Columns = append(out.Columns, c)
	}
	if len(out.Columns) > 0 {
		out.Columns = append(out.Columns, Column{"seeds", KindInt})
	}
	out.Rows = mergeRows(runs, numeric)
	out.Scalars = mergeScalars(runs)
	return out
}

// rowID identifies a row across runs: its non-numeric cells, and its
// position among the rows of its run that share them.
type rowID struct {
	cells string
	nth   int
}

// mergeRows groups the runs' rows by identity, in first-appearance order,
// and merges each group into one row.
func mergeRows(runs []Artifact, numeric []bool) [][]Value {
	var order []rowID
	groups := map[rowID][][]Value{}
	for _, run := range runs {
		nth := map[string]int{}
		for _, row := range run.Rows {
			cells := identity(row, numeric)
			id := rowID{cells, nth[cells]}
			nth[cells]++
			if groups[id] == nil {
				order = append(order, id)
			}
			groups[id] = append(groups[id], row)
		}
	}
	rows := make([][]Value, 0, len(order))
	for _, id := range order {
		group := groups[id]
		row := append(make([]Value, 0, len(group[0])+1), group[0]...)
		for i := range row {
			if numeric[i] {
				column := make([]Value, len(group))
				for j, r := range group {
					column[j] = r[i]
				}
				row[i] = meanStd(column)
			}
		}
		rows = append(rows, append(row, cint(len(group))))
	}
	return rows
}

// identity encodes a row's non-numeric cells, each prefixed with its
// length so no two distinct cell lists share an encoding.
func identity(row []Value, numeric []bool) string {
	var b strings.Builder
	for i, v := range row {
		if !numeric[i] {
			t := v.Text()
			fmt.Fprintf(&b, "%d:%s", len(t), t)
		}
	}
	return b.String()
}

// mergeScalars groups the runs' scalars by name, in first-appearance
// order, and merges each group.
func mergeScalars(runs []Artifact) []Scalar {
	var names []string
	groups := map[string][]Value{}
	for _, run := range runs {
		for _, s := range run.Scalars {
			if groups[s.Name] == nil {
				names = append(names, s.Name)
			}
			groups[s.Name] = append(groups[s.Name], s.Value)
		}
	}
	var out []Scalar
	for _, name := range names {
		group := groups[name]
		switch {
		case isNumeric(group[0].Kind):
			out = append(out, Scalar{name, meanStd(group)})
		case len(group) == len(runs) && allEqual(group):
			out = append(out, Scalar{name, group[0]})
		}
	}
	return out
}

func allEqual(vs []Value) bool {
	for _, v := range vs[1:] {
		if v != vs[0] {
			return false
		}
	}
	return true
}

func isNumeric(k ValueKind) bool { return k == KindInt || k == KindFloat }

// meanStd summarizes numeric cells with stats.Summarize.
func meanStd(cells []Value) Value {
	xs := make([]float64, len(cells))
	for i, v := range cells {
		xs[i] = v.Float
		if v.Kind == KindInt {
			xs[i] = float64(v.Int)
		}
	}
	s := stats.Summarize(xs)
	return MeanStd(s.Mean, s.Std)
}
