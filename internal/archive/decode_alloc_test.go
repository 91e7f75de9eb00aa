package archive_test

import (
	"testing"

	"mevscope/internal/archive"
	"mevscope/internal/dataset"
)

// TestReadMonthAllocsPerTx pins a month decode at a few allocations per
// archived transaction. The decoders fill per-chunk slabs — logs with
// their topics and data, transactions, blocks and receipts — instead of
// allocating one object per row, the chunk body comes from a pool, and
// hashing allocates nothing; a decoder that goes back to per-row
// allocation multiplies the count.
func TestReadMonthAllocsPerTx(t *testing.T) {
	dir := t.TempDir()
	man, err := archive.Write(dir, dataset.FromSim(world(t)), nil)
	if err != nil {
		t.Fatal(err)
	}
	first, last := man.Window()
	opt := archive.ReadOptions{Workers: 1}
	sh, err := archive.RestoreShared(dir, man, last, opt)
	if err != nil {
		t.Fatal(err)
	}
	txs := 0
	for _, si := range man.Segments {
		for _, ci := range si.Columns {
			if ci.Name == archive.ColTxs {
				txs += ci.File.Count
			}
		}
	}
	allocs := testing.AllocsPerRun(3, func() {
		for m := first; m <= last; m++ {
			if _, err := sh.ReadMonth(m, opt); err != nil {
				t.Fatal(err)
			}
		}
	})
	perTx := allocs / float64(txs)
	t.Logf("%d months, %d txs: %.0f allocs, %.2f per tx", last-first+1, txs, allocs, perTx)
	if perTx > 3 {
		t.Errorf("month decode costs %.2f allocs per transaction, want ≤ 3", perTx)
	}
}
