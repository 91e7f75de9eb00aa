package measure

// CSV export: every figure's underlying series in a plottable form, so
// downstream users can regenerate the paper's plots with any tool.
// WriteCSVDir walks the structured artifact model and encodes each
// artifact with the one generic encoder (Artifact.WriteCSV); a single
// figure is Report.Artifact(name) followed by WriteCSV. The CSV output
// therefore cannot drift from the JSON and text encodings of the same
// artifact.

import (
	"fmt"
	"os"
	"path/filepath"
)

// WriteCSVDir writes every artifact of the model as <dir>/<name>.csv —
// tabular artifacts with their column schema as header, scalar-only
// artifacts as metric,value pairs.
func (r *Report) WriteCSVDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, a := range r.Artifacts() {
		f, err := os.Create(filepath.Join(dir, a.Name+".csv"))
		if err != nil {
			return err
		}
		if err := a.WriteCSV(f); err != nil {
			_ = f.Close() // encode error wins; the file is junk either way
			return fmt.Errorf("measure: write %s.csv: %w", a.Name, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
