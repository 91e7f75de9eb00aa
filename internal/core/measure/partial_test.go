package measure_test

import (
	"testing"

	"mevscope"
	"mevscope/internal/archive"
	"mevscope/internal/core/measure"
	"mevscope/internal/dataset"
)

// TestMergedChainKeepsRestoredHashes: the header-level chain a merge
// rebuilds from month partials holds the full restore's blocks — the
// same headers under the same hashes, though it never sees a
// transaction.
func TestMergedChainKeepsRestoredHashes(t *testing.T) {
	st, err := mevscope.Run(mevscope.Options{Seed: 7, BlocksPerMonth: 20})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	man, err := archive.Write(dir, dataset.FromSim(st.Sim), nil)
	if err != nil {
		t.Fatal(err)
	}
	first, last := man.Window()
	full, _, err := archive.ReadRange(dir, first, last)
	if err != nil {
		t.Fatal(err)
	}
	var parts []*measure.Partial
	for m := first; m <= last; m++ {
		ds, _, err := archive.ReadRange(dir, m, m)
		if err != nil {
			t.Fatal(err)
		}
		p, err := mevscope.AnalyzeDatasetPartial(ds, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, p)
	}
	c, err := measure.MergedChain(parts)
	if err != nil {
		t.Fatal(err)
	}
	want, got := full.Chain.Blocks(), c.Blocks()
	if len(got) != len(want) {
		t.Fatalf("merged chain holds %d blocks, the full restore %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Header != want[i].Header || got[i].Hash() != want[i].Hash() {
			t.Fatalf("block %d: merged %x, full restore %x", want[i].Header.Number, got[i].Hash(), want[i].Hash())
		}
		if b, err := c.ByHash(want[i].Hash()); err != nil || b != got[i] {
			t.Fatalf("block %d: merged chain does not index its hash", want[i].Header.Number)
		}
	}
}
