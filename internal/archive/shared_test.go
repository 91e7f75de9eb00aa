package archive_test

import (
	"encoding/json"
	"strings"
	"testing"

	"mevscope"
	"mevscope/internal/archive"
	"mevscope/internal/dataset"
	"mevscope/internal/p2p"
	"mevscope/internal/types"
)

// monthCounts tallies a record log by first-seen month.
func monthCounts(tl types.Timeline, recs []p2p.ObservedTx) [types.StudyMonths]int {
	var out [types.StudyMonths]int
	for _, rec := range recs {
		out[tl.MonthOfBlock(rec.FirstSeenBlock)]++
	}
	return out
}

// prefix zeroes a coverage row past month m.
func prefix(row [types.StudyMonths]int, m types.Month) [types.StudyMonths]int {
	for i := m + 1; i < types.StudyMonths; i++ {
		row[i] = 0
	}
	return row
}

// TestSharedCoverageMatchesPrefixRestores: the coverage table of a
// network restored once through the archive's last month must, for
// every month m, hold in its prefix through m exactly what a network
// restored from only the logs up to m counts — per vantage and for the
// union. That restore is the definition the table replaces.
func TestSharedCoverageMatchesPrefixRestores(t *testing.T) {
	s := multiVantageWorld(t)
	// The "v3" subtest names the column-chunk codec (byte 0x03).
	t.Run("v3", func(t *testing.T) {
		dir := t.TempDir()
		man, err := archive.Write(dir, dataset.FromSim(s), nil)
		if err != nil {
			t.Fatal(err)
		}
		first, last := man.Window()
		sh, err := archive.RestoreShared(dir, man, last, archive.ReadOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		lastMonth, err := sh.ReadMonth(last, archive.ReadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		cov := lastMonth.Coverage // one table, shared by every month read
		if cov == nil || len(cov.Vantages) != 4 {
			t.Fatalf("shared coverage %+v, want a 4-vantage table", cov)
		}
		gtl := man.Timeline.Unanchored()
		for m := first; m <= last; m++ {
			ds, _, err := archive.ReadRange(dir, m, m)
			if err != nil {
				t.Fatal(err)
			}
			vs := ds.VantageList()
			var union [types.StudyMonths]int
			if len(vs) > 0 {
				union = monthCounts(gtl, p2p.Union(vs...).Materialize().Records())
			}
			if got := prefix(cov.Union, m); got != union {
				t.Errorf("month %s: union coverage prefix %v, prefix restore counts %v", m.Label(), got, union)
			}
			for i := range cov.Vantages {
				var want [types.StudyMonths]int
				if i < len(vs) {
					want = monthCounts(gtl, vs[i].Records())
				}
				if got := prefix(cov.Vantages[i], m); got != want {
					t.Errorf("month %s: vantage %d coverage prefix %v, prefix restore counts %v", m.Label(), i, got, want)
				}
			}
		}
	})
}

// TestSharedMonthReadMatchesReadRange: a month read against shared state
// restored through a later month carries a longer observation network
// than ReadRange(dir, m, m), and its analysis must not notice — the
// partial of every month, under every view, serializes identically.
func TestSharedMonthReadMatchesReadRange(t *testing.T) {
	s := multiVantageWorld(t)
	dir := t.TempDir()
	man, err := archive.Write(dir, dataset.FromSim(s), nil)
	if err != nil {
		t.Fatal(err)
	}
	first, last := man.Window()
	sh, err := archive.RestoreShared(dir, man, last, archive.ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	partialJSON := func(ds *dataset.Dataset, view string) string {
		t.Helper()
		ds.View = view
		p, err := mevscope.AnalyzeDatasetPartial(ds, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	for m := first; m <= last; m++ {
		for _, view := range []string{"", "union", "vantage:2", "quorum:3"} {
			ref, _, err := archive.ReadRange(dir, m, m)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sh.ReadMonth(m, archive.ReadOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if partialJSON(got, view) != partialJSON(ref, view) {
				t.Errorf("month %s, view %q: partial over the shared state differs from the ReadRange one", m.Label(), view)
			}
		}
	}
	early, err := archive.RestoreShared(dir, man, first, archive.ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := early.ReadMonth(first+1, archive.ReadOptions{}); err == nil {
		t.Error("a month past the shared state's last month read without error")
	}
}

// TestSharedRefusesMisfiledObservations: the observation network and its
// coverage table are exact only when every observation sits in its
// first-seen month's segment, so an archive that files one a month late
// is refused — by the shared restore and by ReadRange, the same month
// reader over a range, with the same error — even by a read that ends
// before the late segment, whose network would silently lack the record.
func TestSharedRefusesMisfiledObservations(t *testing.T) {
	s := multiVantageWorld(t)
	ds := dataset.FromSim(s)
	segs := dataset.Partition(ds)
	// Move the last observation of the first observed month to the front
	// of the next month's log: counts and record order stay intact.
	var early types.Month
	moved := false
	for i := 0; i+1 < len(segs) && !moved; i++ {
		if n := len(segs[i].Observed); n > 0 {
			rec := segs[i].Observed[n-1]
			segs[i].Observed = segs[i].Observed[:n-1]
			segs[i+1].Observed = append([]p2p.ObservedTx{rec}, segs[i+1].Observed...)
			early, moved = segs[i].Month, true
		}
	}
	if !moved {
		t.Fatal("world has no observations to misfile")
	}
	dir := t.TempDir()
	sw, err := archive.NewStreamWriter(dir, ds.Chain.Timeline, ds.WETH, archive.DefaultFormat, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		if err := sw.WriteSegment(seg); err != nil {
			t.Fatal(err)
		}
	}
	man, err := sw.Finalize(ds)
	if err != nil {
		t.Fatal(err)
	}
	first, last := man.Window()
	for _, through := range []types.Month{last, early} {
		_, sharedErr := archive.RestoreShared(dir, man, through, archive.ReadOptions{})
		if sharedErr == nil || !strings.Contains(sharedErr.Error(), "first seen in") {
			t.Errorf("shared restore through %s of a misfiled archive: err = %v, want a misfiled-observation error",
				through.Label(), sharedErr)
			continue
		}
		if _, _, readErr := archive.ReadRange(dir, first, through); readErr == nil || readErr.Error() != sharedErr.Error() {
			t.Errorf("ReadRange %s..%s of a misfiled archive: err = %v, want the shared restore's %v",
				first.Label(), through.Label(), readErr, sharedErr)
		}
	}
	if _, _, err := archive.Read(dir); err == nil || !strings.Contains(err.Error(), "first seen in") {
		t.Errorf("Read of a misfiled archive: err = %v, want a misfiled-observation error", err)
	}
}
