package measure

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mevscope/internal/core/privinfer"
	"mevscope/internal/stats"
	"mevscope/internal/types"
)

func sampleReport() *Report {
	return &Report{
		Table1: Table1{
			Rows: []Table1Row{
				{Strategy: "Sandwiching", Extractions: 10, ViaFlashbots: 5},
				{Strategy: "Arbitrage", Extractions: 30, ViaFlashbots: 9, ViaFlashLoans: 1},
				{Strategy: "Liquidation", Extractions: 2},
			},
			Total: Table1Row{Strategy: "Total", Extractions: 42, ViaFlashbots: 14, ViaFlashLoans: 1},
		},
		Fig3: []Fig3Row{{Month: 9, FlashbotsBlocks: 3, TotalBlocks: 10}},
		Fig4: []MonthValue{{Month: 9, Value: 0.5}},
		Fig5: Fig5{Thresholds: []int{1, 2}, Months: []types.Month{9}, Counts: [][]int{{4, 2}}},
		Fig6: Fig6{Rows: []Fig6Row{{Month: 9, FlashbotsSand: 1, NonFlashbotsSand: 2, AvgGasPriceGwei: 50}}},
		Fig7: Fig7{Rows: []Fig7Row{{Month: 9, Searchers: map[string]int{"other": 3}, Txs: map[string]int{"other": 7}}}},
		Fig8: Fig8{MinerFB: stats.Summarize([]float64{0.1, 0.2})},
		Fig9: &Fig9{Split: privinfer.SandwichSplit{Total: 10, Flashbots: 8, Private: 1, Public: 1}},
		Bundles: BundleStats{ByType: map[string]int{
			"flashbots": 9, "rogue": 1, "miner-payout": 1,
		}},
	}
}

func TestCSVExportersShapes(t *testing.T) {
	r := sampleReport()
	cases := []struct {
		name   string
		header string
		lines  int
	}{
		{"table1", "strategy,", 5},
		{"fig3", "month,flashbots_blocks", 2},
		{"fig4", "month,flashbots_hashrate", 2},
		{"fig5", "month,ge_1,ge_2", 2},
		{"fig6", "month,flashbots_sandwiches", 2},
		{"fig7", "month,sandwiches_searchers", 2},
		{"fig8", "subpopulation,", 5},
		{"fig9", "channel,sandwiches,share", 4},
		{"bundles", "bundle_type,count", 4},
	}
	for _, c := range cases {
		out, err := artifactCSV(r, c.name)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !strings.HasPrefix(out, c.header) {
			t.Errorf("%s header = %q", c.name, strings.SplitN(out, "\n", 2)[0])
		}
		if got := strings.Count(strings.TrimSpace(out), "\n") + 1; got != c.lines {
			t.Errorf("%s lines = %d want %d", c.name, got, c.lines)
		}
	}
}

// artifactCSV renders the named artifact of r as CSV.
func artifactCSV(r *Report, name string) (string, error) {
	a, ok := r.Artifact(name)
	if !ok {
		return "", fmt.Errorf("no artifact %q", name)
	}
	var buf bytes.Buffer
	err := a.WriteCSV(&buf)
	return buf.String(), err
}

func TestFig9CSVWithoutWindow(t *testing.T) {
	r := sampleReport()
	r.Fig9 = nil
	out, err := artifactCSV(r, "fig9")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(out); got != "channel,sandwiches,share" {
		t.Errorf("header-only expected, got %q", got)
	}
}

// TestWriteCSVDirRoundTrip parses every emitted CSV back and asserts the
// rows match the structured artifact model cell for cell — the guard
// around the generic encoder: a column added to (or dropped from) an
// artifact without its schema shows up here, as does any formatting
// drift.
func TestWriteCSVDirRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r := sampleReport()
	if err := r.WriteCSVDir(dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range ArtifactNames() {
		a, ok := r.Artifact(name)
		if !ok {
			t.Fatalf("no artifact %q behind %s.csv", name, name)
		}
		f, err := os.Open(filepath.Join(dir, name+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		records, err := csv.NewReader(f).ReadAll()
		f.Close()
		if err != nil {
			t.Fatalf("%s.csv: %v", name, err)
		}
		if len(records) == 0 {
			t.Fatalf("%s.csv is empty", name)
		}
		header, rows := records[0], records[1:]
		if len(a.Columns) == 0 {
			// Scalar-only artifacts encode as metric,value pairs.
			if header[0] != "metric" || header[1] != "value" {
				t.Fatalf("%s.csv header = %v", name, header)
			}
			if len(rows) != len(a.Scalars) {
				t.Fatalf("%s.csv has %d rows, model has %d scalars", name, len(rows), len(a.Scalars))
			}
			for ri, rec := range rows {
				if rec[0] != a.Scalars[ri].Name || rec[1] != a.Scalars[ri].Value.Text() {
					t.Errorf("%s.csv row %d = %v, model scalar %s=%s",
						name, ri, rec, a.Scalars[ri].Name, a.Scalars[ri].Value.Text())
				}
			}
			continue
		}
		if len(header) != len(a.Columns) {
			t.Fatalf("%s.csv has %d columns, model %d", name, len(header), len(a.Columns))
		}
		for i, col := range a.Columns {
			if header[i] != col.Name {
				t.Errorf("%s.csv column %d = %q, model %q", name, i, header[i], col.Name)
			}
		}
		if len(rows) != len(a.Rows) {
			t.Fatalf("%s.csv has %d rows, model %d", name, len(rows), len(a.Rows))
		}
		for ri, rec := range rows {
			for ci, cell := range rec {
				if want := a.Rows[ri][ci].Text(); cell != want {
					t.Errorf("%s.csv row %d col %s = %q, model %q", name, ri, a.Columns[ci].Name, cell, want)
				}
			}
		}
	}
}

func TestWriteCSVDir(t *testing.T) {
	dir := t.TempDir()
	r := sampleReport()
	if err := r.WriteCSVDir(filepath.Join(dir, "csv")); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(ArtifactNames()) {
		t.Errorf("files = %d, want one per artifact (%d)", len(entries), len(ArtifactNames()))
	}
	b, err := os.ReadFile(filepath.Join(dir, "csv", "table1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "Sandwiching") {
		t.Error("table1.csv content")
	}
}
