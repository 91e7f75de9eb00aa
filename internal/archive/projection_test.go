package archive_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mevscope/internal/archive"
	"mevscope/internal/dataset"
	"mevscope/internal/types"
)

// TestProjectionMatchesFullRead is the projection property pin: for
// random month ranges and random column subsets, a projected read must
// restore exactly the data a full read of the same range restores on
// every projected column, while skipping the other chunks on disk.
func TestProjectionMatchesFullRead(t *testing.T) {
	s := world(t)
	dir := t.TempDir()
	man, err := archive.Write(dir, dataset.FromSim(s), nil)
	if err != nil {
		t.Fatal(err)
	}
	first, last := man.Window()
	span := int(last-first) + 1
	names := archive.ColumnNames()

	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 6; trial++ {
		lo := first + types.Month(rng.Intn(span))
		hi := lo + types.Month(rng.Intn(int(last-lo)+1))
		var subset []string
		for _, name := range names {
			if rng.Intn(2) == 1 {
				subset = append(subset, name)
			}
		}
		if len(subset) == 0 {
			subset = []string{archive.ColFlashbots}
		}
		// The "v3" path element names the column-chunk codec (byte 0x03).
		t.Run(fmt.Sprintf("trial%d/v3/%s..%s/%v", trial, lo.Label(), hi.Label(), subset), func(t *testing.T) {
			full, _, err := archive.ReadRange(dir, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			proj, _, err := archive.ReadRangeWith(dir, lo, hi, archive.ReadOptions{Columns: subset})
			if err != nil {
				t.Fatal(err)
			}
			compareProjection(t, full, proj, subset)
		})
	}
}

// compareProjection asserts proj carries exactly full's data on every
// projected column (after dependency closure), and nothing beyond the
// closure.
func compareProjection(t *testing.T, full, proj *dataset.Dataset, subset []string) {
	t.Helper()
	if len(proj.Projection) == 0 {
		t.Fatal("projected dataset has no Projection marker")
	}
	has := func(name string) bool {
		for _, c := range proj.Projection {
			if c == name {
				return true
			}
		}
		return false
	}
	// The closure invariants: headers always restore; logs need their
	// receipts; receipts and txs travel together.
	if !has(archive.ColHeaders) {
		t.Errorf("projection %v does not include headers", proj.Projection)
	}
	for _, name := range subset {
		if !has(name) {
			t.Errorf("requested column %q missing from projection %v", name, proj.Projection)
		}
	}
	if has(archive.ColLogs) && !has(archive.ColReceipts) {
		t.Errorf("projection %v has logs without receipts", proj.Projection)
	}
	if has(archive.ColReceipts) != has(archive.ColTxs) {
		t.Errorf("projection %v splits receipts from txs", proj.Projection)
	}

	if full.Chain.Len() != proj.Chain.Len() {
		t.Fatalf("projected chain has %d blocks, full has %d", proj.Chain.Len(), full.Chain.Len())
	}
	head := full.Chain.Head().Header.Number
	for n := head + 1 - uint64(full.Chain.Len()); n <= head; n++ {
		fb, err := full.Chain.ByNumber(n)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := proj.Chain.ByNumber(n)
		if err != nil {
			t.Fatal(err)
		}
		if fb.Header != pb.Header {
			t.Fatalf("block %d header differs:\n full %+v\n proj %+v", n, fb.Header, pb.Header)
		}
		if !has(archive.ColTxs) {
			continue
		}
		if len(fb.Txs) != len(pb.Txs) || len(fb.Receipts) != len(pb.Receipts) {
			t.Fatalf("block %d: projected %d txs/%d receipts, full %d/%d",
				n, len(pb.Txs), len(pb.Receipts), len(fb.Txs), len(fb.Receipts))
		}
		for i := range fb.Txs {
			if fb.Txs[i].Hash() != pb.Txs[i].Hash() {
				t.Fatalf("block %d tx %d hash differs", n, i)
			}
			fr, pr := fb.Receipts[i], pb.Receipts[i]
			if fr.TxHash != pr.TxHash || fr.Status != pr.Status || fr.GasUsed != pr.GasUsed ||
				fr.EffectiveGasPrice != pr.EffectiveGasPrice || fr.CoinbaseTransfer != pr.CoinbaseTransfer {
				t.Fatalf("block %d receipt %d differs:\n full %+v\n proj %+v", n, i, fr, pr)
			}
			if has(archive.ColLogs) && !reflect.DeepEqual(fr.Logs, pr.Logs) {
				t.Fatalf("block %d receipt %d logs differ:\n full %+v\n proj %+v", n, i, fr.Logs, pr.Logs)
			}
		}
	}

	if has(archive.ColFlashbots) && !reflect.DeepEqual(full.FBBlocks, proj.FBBlocks) {
		t.Errorf("projected FBBlocks differ from full read (%d vs %d records)",
			len(proj.FBBlocks), len(full.FBBlocks))
	}
	if has(archive.ColObserved) {
		if (full.Observer == nil) != (proj.Observer == nil) {
			t.Fatalf("observer presence differs: full %v, proj %v", full.Observer != nil, proj.Observer != nil)
		}
		if full.Observer != nil && !reflect.DeepEqual(full.Observer.Records(), proj.Observer.Records()) {
			t.Errorf("projected observer records differ from full read")
		}
		if len(full.Vantages) != len(proj.Vantages) {
			t.Errorf("projected %d vantages, full %d", len(proj.Vantages), len(full.Vantages))
		}
	} else if proj.Observer != nil {
		t.Error("observed column not projected but the observer was restored")
	}
}
