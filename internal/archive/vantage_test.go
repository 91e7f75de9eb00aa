package archive_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"mevscope"
	"mevscope/internal/archive"
	"mevscope/internal/dataset"
	"mevscope/internal/sim"
	"mevscope/internal/types"
)

// Shared multi-vantage world: simulated once per test process.
var (
	mvOnce sync.Once
	mvSim  *sim.Sim
	mvErr  error
)

func multiVantageWorld(tb testing.TB) *sim.Sim {
	tb.Helper()
	mvOnce.Do(func() {
		cfg, err := mevscope.Options{Seed: 23, BlocksPerMonth: 25, Scenario: "multi-vantage-union"}.Config()
		if err != nil {
			mvErr = err
			return
		}
		s, err := sim.New(cfg)
		if err != nil {
			mvErr = err
			return
		}
		mvErr = s.Run()
		mvSim = s
	})
	if mvErr != nil {
		tb.Fatal(mvErr)
	}
	return mvSim
}

// TestMultiVantageRoundTrip: an archive of a 4-vantage world persists
// one observation chunk per vantage per month, restores every log
// bit-compatibly, and the union-view report of the restored dataset is
// byte-identical to the in-memory one.
func TestMultiVantageRoundTrip(t *testing.T) {
	s := multiVantageWorld(t)
	ds := dataset.FromSim(s)
	ds.View = "union"
	if len(ds.Vantages) != 4 {
		t.Fatalf("world has %d vantages, want 4", len(ds.Vantages))
	}
	st, err := mevscope.AnalyzeDataset(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	st.WriteReport(&want)

	dir := t.TempDir()
	man, err := archive.Write(dir, ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Vantages) != 4 {
		t.Fatalf("manifest records %d vantages, want 4", len(man.Vantages))
	}
	for _, si := range man.Segments {
		if len(si.ObservedV) != 3 {
			t.Fatalf("segment %s counts %d extra vantages, want 3", si.Label, len(si.ObservedV))
		}
		for v := 1; v <= 3; v++ {
			name := fmt.Sprintf("%s_v%d", archive.ColObserved, v)
			found := false
			for _, ci := range si.Columns {
				found = found || ci.Name == name
			}
			if !found {
				t.Fatalf("segment %s has no %s chunk", si.Label, name)
			}
		}
	}
	restored, _, err := archive.Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(restored.Vantages) != 4 {
		t.Fatalf("restored %d vantages, want 4", len(restored.Vantages))
	}
	for vi, v := range restored.Vantages {
		orig := ds.Vantages[vi]
		if v.Node() != orig.Node() {
			t.Errorf("vantage %d node %d, want %d", vi, v.Node(), orig.Node())
		}
		if v.Count() != orig.Count() {
			t.Errorf("vantage %d restored %d records, want %d", vi, v.Count(), orig.Count())
		}
		for i, rec := range orig.Records() {
			if got := v.Records()[i]; got != rec {
				t.Fatalf("vantage %d record %d drifted: %+v vs %+v", vi, i, got, rec)
			}
		}
	}
	restored.View = "union"
	rst, err := mevscope.AnalyzeDataset(restored, 2)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	rst.WriteReport(&got)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("union-view report drifted across the archive round trip")
	}
}

// TestMultiVantageRangeKeepsAllLogs: a month-sliced restore still
// carries every vantage's pre-slice observation records (a tx first seen
// before the slice can be mined inside it).
func TestMultiVantageRangeKeepsAllLogs(t *testing.T) {
	s := multiVantageWorld(t)
	ds := dataset.FromSim(s)
	dir := t.TempDir()
	if _, err := archive.Write(dir, ds, nil); err != nil {
		t.Fatal(err)
	}
	sliced, _, err := archive.ReadRange(dir, types.ObservationStartMonth+2, types.StudyMonths-1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sliced.Vantages) != 4 {
		t.Fatalf("sliced restore has %d vantages, want 4", len(sliced.Vantages))
	}
	for vi, v := range sliced.Vantages {
		if v.Count() != ds.Vantages[vi].Count() {
			t.Errorf("vantage %d: sliced restore has %d records, full log has %d",
				vi, v.Count(), ds.Vantages[vi].Count())
		}
	}
}

// TestStreamWriterFinalizeIdempotent: repeated Finalize is a no-op
// returning the already-written manifest, and WriteSegment after
// finalize stays an error.
func TestStreamWriterFinalizeIdempotent(t *testing.T) {
	s := multiVantageWorld(t)
	ds := dataset.FromSim(s)
	sw, err := archive.NewStreamWriter(t.TempDir(), s.Chain.Timeline, s.World.WETH, archive.DefaultFormat, nil)
	if err != nil {
		t.Fatal(err)
	}
	man, err := sw.Finalize(ds)
	if err != nil {
		t.Fatal(err)
	}
	again, err := sw.Finalize(ds)
	if err != nil {
		t.Fatalf("second Finalize should be a no-op, got %v", err)
	}
	if again != man {
		t.Error("second Finalize should hand back the same manifest")
	}
	segs := dataset.Partition(ds)
	if err := sw.WriteSegment(segs[0]); err == nil {
		t.Error("WriteSegment after finalize should error")
	}
}
