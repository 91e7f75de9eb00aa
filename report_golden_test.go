package mevscope

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"mevscope/internal/archive"
	"mevscope/internal/dataset"
)

// TestWriteReportGolden pins the text report byte-for-byte against the
// output of the pre-artifact-model renderer (captured in testdata before
// the refactor). The renderer is now a thin walk over the structured
// artifact model; this test is the proof the model carries every value
// the monolithic renderer read, at full precision.
func TestWriteReportGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/report_seed1234_bpm100.golden")
	if err != nil {
		t.Fatal(err)
	}
	st, err := Run(Options{Seed: 1234, BlocksPerMonth: 100})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	st.WriteReport(&buf)
	if bytes.Equal(buf.Bytes(), want) {
		return
	}
	gotLines := strings.Split(buf.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		g, w := "<missing>", "<missing>"
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("report drifted from golden at line %d:\n got: %s\nwant: %s", i+1, g, w)
		}
	}
	t.Fatal("report differs from golden (whitespace only?)")
}

// TestArchiveRoundTripGolden pins the archive against the same golden
// file the in-memory pipeline is pinned to: the golden world archived
// and restored must yield a report byte-for-byte the golden report. This
// is the acceptance gate for the encoding — compression, per-column
// codecs, zone maps and the prices chunk are invisible to every measured
// value.
func TestArchiveRoundTripGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/report_seed1234_bpm100.golden")
	if err != nil {
		t.Fatal(err)
	}
	st, err := Run(Options{Seed: 1234, BlocksPerMonth: 100})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := archive.Write(dir, dataset.FromSim(st.Sim), nil); err != nil {
		t.Fatal(err)
	}
	restored, _, err := archive.Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	rst, err := AnalyzeDataset(restored, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rst.WriteReport(&buf)
	if !bytes.Equal(buf.Bytes(), want) {
		t.Error("archive round trip drifted from the golden report")
	}
}

// TestArtifactFormatsConsistent cross-checks the three encodings of one
// artifact: the CSV row count matches the model, and the text rendering
// carries the same months the model rows do.
func TestArtifactFormatsConsistent(t *testing.T) {
	st := runStudy(t)
	a, ok := st.Report.Artifact("fig3")
	if !ok {
		t.Fatal("fig3 artifact missing")
	}
	var csvBuf bytes.Buffer
	if err := a.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(strings.TrimSpace(csvBuf.String()), "\n")
	if lines != len(a.Rows) {
		t.Errorf("CSV rows = %d, model rows = %d", lines, len(a.Rows))
	}
	var txt bytes.Buffer
	st.WriteReport(&txt)
	for _, row := range a.Rows {
		if !strings.Contains(txt.String(), row[0].Month.String()) {
			t.Errorf("text report missing month %s", row[0].Month)
		}
	}
	if len(a.Rows) == 0 {
		t.Fatal("fig3 artifact has no rows")
	}
	// The JSON encoding round-trips the same cells.
	var out struct {
		Rows [][]any `json:"rows"`
	}
	var jsonBuf bytes.Buffer
	if err := a.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(jsonBuf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != len(a.Rows) {
		t.Errorf("JSON rows = %d, model rows = %d", len(out.Rows), len(a.Rows))
	}
	for i, row := range a.Rows {
		if got, want := out.Rows[i][1].(float64), float64(row[1].Int); got != want {
			t.Errorf("row %d flashbots_blocks: JSON %v, model %v", i, got, want)
		}
		if got, want := fmt.Sprint(out.Rows[i][0]), row[0].Month.String(); got != want {
			t.Errorf("row %d month: JSON %q, model %q", i, got, want)
		}
	}
}
