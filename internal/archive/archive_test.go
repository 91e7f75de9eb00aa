package archive_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mevscope"
	"mevscope/internal/archive"
	"mevscope/internal/dataset"
	"mevscope/internal/sim"
	"mevscope/internal/types"
)

// world simulates a small full-window world (the observer window opens,
// so the archive carries observed pending transactions too).
func world(tb testing.TB) *sim.Sim {
	tb.Helper()
	cfg := sim.DefaultConfig(17)
	cfg.BlocksPerMonth = 25
	s, err := sim.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.Run(); err != nil {
		tb.Fatal(err)
	}
	return s
}

// TestArchiveRoundTrip: write → read → analyze must reproduce the
// original report byte for byte.
func TestArchiveRoundTrip(t *testing.T) {
	s := world(t)
	ds := dataset.FromSim(s)
	if ds.Observer == nil {
		t.Fatal("expected an observation window at this scale")
	}
	dir := t.TempDir()
	man, err := archive.Write(dir, ds, map[string]string{"seed": "17"})
	if err != nil {
		t.Fatal(err)
	}
	if man.TotalBlocks != s.Chain.Len() {
		t.Errorf("manifest blocks = %d, want %d", man.TotalBlocks, s.Chain.Len())
	}
	if len(man.Segments) == 0 || man.Observer == nil {
		t.Fatalf("manifest incomplete: %d segments, observer %v", len(man.Segments), man.Observer)
	}
	if man.Version != int(archive.DefaultFormat) || man.Prices.Name != "prices.col" {
		t.Errorf("manifest version %d, prices file %q; want version %d and prices.col",
			man.Version, man.Prices.Name, archive.DefaultFormat)
	}
	for _, seg := range man.Segments {
		if len(seg.Columns) == 0 {
			t.Errorf("segment %s has no column chunks", seg.Label)
		}
	}

	restored, man2, err := archive.Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man2.Head != man.Head {
		t.Errorf("restored head %d, want %d", man2.Head, man.Head)
	}
	if restored.Chain.Len() != s.Chain.Len() {
		t.Fatalf("restored %d blocks, want %d", restored.Chain.Len(), s.Chain.Len())
	}
	// Block hashes must survive the round trip (Seal is content-derived).
	for _, b := range s.Chain.Blocks() {
		rb, err := restored.Chain.ByNumber(b.Header.Number)
		if err != nil {
			t.Fatalf("block %d missing after restore: %v", b.Header.Number, err)
		}
		if rb.Hash() != b.Hash() {
			t.Fatalf("block %d hash changed across the round trip", b.Header.Number)
		}
	}
	if restored.Observer.Count() != ds.Observer.Count() {
		t.Errorf("restored observer has %d records, want %d", restored.Observer.Count(), ds.Observer.Count())
	}
	// The price series survives token by token and point by point.
	toks := ds.Prices.Tokens()
	if len(toks) == 0 {
		t.Fatal("world recorded no prices")
	}
	if got := restored.Prices.Tokens(); !reflect.DeepEqual(got, toks) {
		t.Fatalf("restored %d price tokens, want %d (or a different set)", len(got), len(toks))
	}
	for _, tok := range toks {
		if got, want := restored.Prices.History(tok), ds.Prices.History(tok); !reflect.DeepEqual(got, want) {
			t.Errorf("token %v: restored %d price points, want %d (or different values)", tok.Short(), len(got), len(want))
		}
	}

	origStudy, err := mevscope.AnalyzeDataset(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	restStudy, err := mevscope.AnalyzeDataset(restored, 2)
	if err != nil {
		t.Fatal(err)
	}
	var orig, rest bytes.Buffer
	mevscope.WriteReportTo(&orig, origStudy.Report)
	mevscope.WriteReportTo(&rest, restStudy.Report)
	if !bytes.Equal(orig.Bytes(), rest.Bytes()) {
		t.Error("report over the restored archive differs from the original")
	}
}

// TestReadBlock: a month's block read (ReadBlocks) and a full restore
// (Read) both return the sim chain's own block, compared as the JSON
// /v1/block serves, at segment edges, inside segments and for an empty
// block. No simulated block is empty, so the test seals one by hand at
// the head of a Months-limited world, where it opens a segment of its
// own; its transaction and receipt lists are nil, as the miner leaves
// an empty block's, and must read back nil, not empty.
func TestReadBlock(t *testing.T) {
	cfg := sim.DefaultConfig(17)
	cfg.BlocksPerMonth = 25
	cfg.Months = 3
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	c := s.Chain
	n := c.NextNumber()
	empty := &types.Block{Header: types.Header{
		Number:     n,
		ParentHash: c.Head().Hash(),
		Time:       c.Timeline.TimeOfBlock(n),
		Miner:      types.Address{1},
		BaseFee:    c.NextBaseFee(),
		GasLimit:   c.GasLimit,
	}}
	empty.Seal()
	if err := c.Append(empty); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	man, err := archive.Write(dir, dataset.FromSim(s), nil)
	if err != nil {
		t.Fatal(err)
	}
	if last := man.Segments[len(man.Segments)-1]; last.FirstBlock != n || last.LastBlock != n {
		t.Fatalf("fixture: the empty block %d should be alone in the last segment, which holds %d..%d",
			n, last.FirstBlock, last.LastBlock)
	}
	restored, _, err := archive.Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	asJSON := func(b *types.Block) string {
		t.Helper()
		raw, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	checked := map[uint64]bool{}
	for _, si := range man.Segments {
		blocks, err := archive.ReadBlocks(dir, si)
		if err != nil {
			t.Fatalf("ReadBlocks(%s): %v", si.Label, err)
		}
		if len(blocks) != si.Blocks.Count {
			t.Fatalf("ReadBlocks(%s) restored %d blocks, the manifest says %d", si.Label, len(blocks), si.Blocks.Count)
		}
		for _, num := range []uint64{si.FirstBlock, (si.FirstBlock + si.LastBlock) / 2, si.LastBlock} {
			if checked[num] {
				continue
			}
			checked[num] = true
			simBlock, err := c.ByNumber(num)
			if err != nil {
				t.Fatal(err)
			}
			want := asJSON(simBlock)
			got := blocks[num-si.FirstBlock]
			if js := asJSON(got); js != want {
				t.Errorf("ReadBlocks(%s) block %d differs from the sim's block:\n got  %.300s\n want %.300s", si.Label, num, js, want)
			}
			full, err := restored.Chain.ByNumber(num)
			if err != nil {
				t.Fatal(err)
			}
			if js := asJSON(full); js != want {
				t.Errorf("restored block %d differs from the sim's block:\n got  %.300s\n want %.300s", num, js, want)
			}
		}
	}
}

// TestReadRangeSharedSegments: overlapping range reads restore the
// months they share alike — a second read of a range analyzes to the
// first read's report byte for byte after reads of overlapping ranges —
// and the range that reaches into the observation window restores the
// observation network along with its new block chunks.
func TestReadRangeSharedSegments(t *testing.T) {
	s := world(t)
	dir := t.TempDir()
	if _, err := archive.Write(dir, dataset.FromSim(s), nil); err != nil {
		t.Fatal(err)
	}
	read := func(from, to types.Month) *dataset.Dataset {
		t.Helper()
		ds, _, err := archive.ReadRange(dir, from, to)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	cold := read(8, 12)
	if warm := read(10, 14); warm.Chain.Len() == 0 {
		t.Error("overlapping read restored nothing")
	}
	if observing := read(12, types.ObservationStartMonth); observing.Observer == nil {
		t.Error("a read into the observation window restored no observer")
	}
	coldStudy, err := mevscope.AnalyzeDataset(cold, 1)
	if err != nil {
		t.Fatal(err)
	}
	againStudy, err := mevscope.AnalyzeDataset(read(8, 12), 1)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	mevscope.WriteReportTo(&a, coldStudy.Report)
	mevscope.WriteReportTo(&b, againStudy.Report)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("a second read of the range analyzes to a different report")
	}
}

// TestArchiveDetectsCorruption: a flipped byte in any data file must fail
// the checksum verification.
func TestArchiveDetectsCorruption(t *testing.T) {
	s := world(t)
	dir := t.TempDir()
	man, err := archive.Write(dir, dataset.FromSim(s), nil)
	if err != nil {
		t.Fatal(err)
	}
	// The block data lives in the headers column chunk.
	var name string
	for _, ci := range man.Segments[0].Columns {
		if ci.Name == archive.ColHeaders {
			name = ci.File.Name
		}
	}
	victim := filepath.Join(dir, filepath.FromSlash(name))
	raw, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(victim, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := archive.Read(dir); err == nil {
		t.Fatal("corrupted archive should fail to read")
	}
}

// TestArchiveRejectsMissingManifest: a directory without a manifest is
// not an archive.
func TestArchiveRejectsMissingManifest(t *testing.T) {
	if _, _, err := archive.Read(t.TempDir()); err == nil {
		t.Fatal("empty directory should fail to read")
	}
}

// TestReadManifestRefusesOtherVersions: a manifest of a retired
// version (1 and 2 held JSON documents, 3 a frame-coded prices.seg) or
// of a version this build does not know is refused before any data file
// is read, with an error that says how to get a readable archive.
func TestReadManifestRefusesOtherVersions(t *testing.T) {
	s := world(t)
	dir := t.TempDir()
	if _, err := archive.Write(dir, dataset.FromSim(s), nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, archive.ManifestName)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		version int
	}{
		{"v1 JSON lines", 1},
		{"v2 compressed frames", 2},
		{"v3 frame-coded prices", 3},
		{"unknown future version", int(archive.DefaultFormat) + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var doc map[string]any
			dec := json.NewDecoder(bytes.NewReader(orig))
			dec.UseNumber() // keep every other field's digits exact
			if err := dec.Decode(&doc); err != nil {
				t.Fatal(err)
			}
			doc["version"] = tc.version
			raw, err := json.Marshal(doc)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err = archive.ReadManifest(dir)
			if err == nil {
				t.Fatalf("manifest version %d accepted", tc.version)
			}
			for _, want := range []string{fmt.Sprintf("version %d", tc.version), "regenerate the archive with `mevscope archive`"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
			if _, _, err := archive.Read(dir); err == nil {
				t.Errorf("Read accepted manifest version %d", tc.version)
			}
		})
	}
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := archive.ReadManifest(dir); err != nil {
		t.Errorf("restored manifest refused: %v", err)
	}
}

// editableArchive writes a 2-month bpm-20 world's archive to dir and
// returns a function that replaces its manifest with a deep copy of the
// written one changed by edit, so each subtest starts from the original.
func editableArchive(t *testing.T, dir string) func(t *testing.T, edit func(*archive.Manifest)) {
	t.Helper()
	cfg := sim.DefaultConfig(3)
	cfg.BlocksPerMonth = 20
	cfg.Months = 2
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	man, err := archive.Write(dir, dataset.FromSim(s), nil)
	if err != nil {
		t.Fatal(err)
	}
	return func(t *testing.T, edit func(*archive.Manifest)) {
		t.Helper()
		bad := *man
		bad.Segments = append([]archive.SegmentInfo(nil), man.Segments...)
		for i := range bad.Segments {
			bad.Segments[i].Columns = append([]archive.ColumnInfo(nil), man.Segments[i].Columns...)
		}
		edit(&bad)
		raw, err := json.Marshal(&bad)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, archive.ManifestName), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReadManifestRefusesNonLocalNames: a manifest is untrusted input
// and every read joins its file names to the archive root, so a chunk or
// prices file name that leaves the archive is refused by ReadManifest,
// and ReadRange never opens the file it names.
func TestReadManifestRefusesNonLocalNames(t *testing.T) {
	root := t.TempDir()
	outside := filepath.Join(root, "outside.txt")
	if err := os.WriteFile(outside, []byte("not an archive file"), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "archive")
	rewrite := editableArchive(t, dir)
	for _, tc := range []struct {
		name   string
		rename func(m *archive.Manifest, to string)
		to     string
	}{
		{"headers chunk climbing out", func(m *archive.Manifest, to string) { m.Segments[0].Columns[0].File.Name = to }, "../outside.txt"},
		{"txs chunk climbing out of its month", func(m *archive.Manifest, to string) { m.Segments[1].Columns[1].File.Name = to }, "2020-06/../../outside.txt"},
		{"absolute prices file", func(m *archive.Manifest, to string) { m.Prices.Name = to }, filepath.ToSlash(outside)},
		{"empty prices name", func(m *archive.Manifest, to string) { m.Prices.Name = to }, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rewrite(t, func(m *archive.Manifest) { tc.rename(m, tc.to) })
			want := fmt.Sprintf("manifest names file %q outside the archive", tc.to)
			if _, err := archive.ReadManifest(dir); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("ReadManifest: err = %v, want %q", err, want)
			}
			if _, _, err := archive.ReadRange(dir, 0, types.StudyMonths-1); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("ReadRange: err = %v, want %q", err, want)
			}
		})
	}
}

// TestReadManifestRefusesBadBlockRanges: /v1/block finds a block's
// month by the segments' block ranges, so ReadManifest (and with it
// `mevscope serve` at startup) refuses ranges that overlap, run
// backwards or differ from their headers chunk's zone map. Before the
// check, a first segment whose last_block was one too high made the
// server answer 500 for a block the next segment holds.
func TestReadManifestRefusesBadBlockRanges(t *testing.T) {
	dir := t.TempDir()
	rewrite := editableArchive(t, dir)
	man, err := archive.ReadManifest(dir)
	if err != nil {
		t.Fatalf("written manifest refused: %v", err)
	}
	headers := func(si *archive.SegmentInfo) *archive.ColumnInfo {
		for i := range si.Columns {
			if si.Columns[i].Name == archive.ColHeaders {
				return &si.Columns[i]
			}
		}
		t.Fatalf("segment %s has no headers chunk", si.Label)
		return nil
	}
	for _, tc := range []struct {
		name string
		edit func(m *archive.Manifest)
		want string
	}{
		{"last block one too high", func(m *archive.Manifest) { m.Segments[0].LastBlock++ },
			fmt.Sprintf("segment 2020-05 has blocks %d..%d after blocks through 0, its headers chunk %d..%d",
				man.Segments[0].FirstBlock, man.Segments[0].LastBlock+1, man.Segments[0].FirstBlock, man.Segments[0].LastBlock)},
		{"overlap agreeing with the headers chunk", func(m *archive.Manifest) {
			m.Segments[0].LastBlock++
			headers(&m.Segments[0]).MaxBlock++
		}, fmt.Sprintf("segment 2020-06 has blocks %d..%d after blocks through %d",
			man.Segments[1].FirstBlock, man.Segments[1].LastBlock, man.Segments[1].FirstBlock)},
		{"segments out of order", func(m *archive.Manifest) {
			m.Segments[0], m.Segments[1] = m.Segments[1], m.Segments[0]
		}, fmt.Sprintf("segment 2020-05 has blocks %d..%d after blocks through %d",
			man.Segments[0].FirstBlock, man.Segments[0].LastBlock, man.Segments[1].LastBlock)},
		{"inverted range", func(m *archive.Manifest) {
			m.Segments[1].FirstBlock, m.Segments[1].LastBlock = m.Segments[1].LastBlock, m.Segments[1].FirstBlock
		}, fmt.Sprintf("segment 2020-06 has blocks %d..%d", man.Segments[1].LastBlock, man.Segments[1].FirstBlock)},
		{"no headers chunk", func(m *archive.Manifest) {
			h := headers(&m.Segments[1])
			h.Name = "headers_old"
		}, `has no "headers" column`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rewrite(t, tc.edit)
			if _, err := archive.ReadManifest(dir); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("ReadManifest: err = %v, want %q", err, tc.want)
			}
		})
	}
}

// FuzzReadManifest: any manifest bytes give an error or a manifest whose
// every chunk and prices file name is local to the archive and whose
// segment block ranges ascend without overlap, each equal to its
// headers chunk's zone map; Window and DataBytes never panic on an
// accepted one. The seeds are a 1-vantage and a 4-vantage world's
// manifests.
func FuzzReadManifest(f *testing.F) {
	for _, s := range []*sim.Sim{world(f), multiVantageWorld(f)} {
		dir := f.TempDir()
		if _, err := archive.Write(dir, dataset.FromSim(s), nil); err != nil {
			f.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, archive.ManifestName))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, raw []byte) {
		if err := os.WriteFile(filepath.Join(dir, archive.ManifestName), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		man, err := archive.ReadManifest(dir)
		if err != nil {
			return
		}
		names := []string{man.Prices.Name}
		for _, si := range man.Segments {
			for _, ci := range si.Columns {
				names = append(names, ci.File.Name)
			}
		}
		for _, name := range names {
			if !filepath.IsLocal(filepath.FromSlash(name)) {
				t.Fatalf("accepted a manifest naming %q", name)
			}
		}
		for i, si := range man.Segments {
			if si.FirstBlock > si.LastBlock || i > 0 && si.FirstBlock <= man.Segments[i-1].LastBlock {
				t.Fatalf("accepted segment %d's block range %d..%d after %+v", i, si.FirstBlock, si.LastBlock, man.Segments[:i])
			}
			headers := 0
			for _, ci := range si.Columns {
				if ci.Name == archive.ColHeaders && ci.MinBlock == si.FirstBlock && ci.MaxBlock == si.LastBlock {
					headers++
				}
			}
			if headers == 0 {
				t.Fatalf("accepted segment %d (blocks %d..%d) without a headers chunk of that range", i, si.FirstBlock, si.LastBlock)
			}
		}
		man.Window()
		man.DataBytes()
	})
}

// TestReadRange: a month slice restores only those segments, keeps
// block→month alignment with the full archive, and its analysis matches
// the full analysis month for month.
func TestReadRange(t *testing.T) {
	s := world(t)
	full := dataset.FromSim(s)
	dir := t.TempDir()
	if _, err := archive.Write(dir, full, nil); err != nil {
		t.Fatal(err)
	}

	from, to := types.Month(10), types.Month(13)
	sliced, man, err := archive.ReadRange(dir, from, to)
	if err != nil {
		t.Fatal(err)
	}
	if man.TotalBlocks != s.Chain.Len() {
		t.Errorf("manifest is the archive's, not the slice's: %d blocks", man.TotalBlocks)
	}
	wantBlocks := 0
	for m := from; m <= to; m++ {
		wantBlocks += len(s.Chain.BlocksInMonth(m))
	}
	if sliced.Chain.Len() != wantBlocks {
		t.Fatalf("slice restored %d blocks, want %d", sliced.Chain.Len(), wantBlocks)
	}
	if got := sliced.Chain.Timeline.FirstMonth; got != from {
		t.Errorf("slice timeline starts at month %d, want %d", got, from)
	}
	// Block→month alignment: the slice's timeline maps every restored
	// block to the same month the full timeline does.
	for _, b := range sliced.Chain.Blocks() {
		if got, want := sliced.Chain.Timeline.MonthOfBlock(b.Header.Number), s.Chain.Timeline.MonthOfBlock(b.Header.Number); got != want {
			t.Fatalf("block %d maps to month %d in the slice, %d in the full timeline", b.Header.Number, got, want)
		}
	}
	// The slice ends before the observation window: no observer.
	if sliced.Observer != nil {
		t.Error("slice below the observation window restored an observer")
	}

	fullStudy, err := mevscope.AnalyzeDataset(full, 1)
	if err != nil {
		t.Fatal(err)
	}
	sliceStudy, err := mevscope.AnalyzeDataset(sliced, 1)
	if err != nil {
		t.Fatal(err)
	}
	fullByMonth := map[types.Month]int{}
	for _, row := range fullStudy.Report.Fig3 {
		fullByMonth[row.Month] = row.FlashbotsBlocks
	}
	if got := len(sliceStudy.Report.Fig3); got != int(to-from)+1 {
		t.Fatalf("slice fig3 covers %d months, want %d", got, int(to-from)+1)
	}
	for _, row := range sliceStudy.Report.Fig3 {
		if row.Month < from || row.Month > to {
			t.Errorf("slice fig3 contains out-of-range month %s", row.Month)
		}
		if row.FlashbotsBlocks != fullByMonth[row.Month] {
			t.Errorf("month %s: slice counts %d Flashbots blocks, full %d",
				row.Month, row.FlashbotsBlocks, fullByMonth[row.Month])
		}
	}
}

// TestReadRangeObserverWindow: a slice reaching into the observation
// window restores the observer with only that slice's records.
func TestReadRangeObserverWindow(t *testing.T) {
	s := world(t)
	full := dataset.FromSim(s)
	if full.Observer == nil {
		t.Fatal("expected an observation window at this scale")
	}
	dir := t.TempDir()
	if _, err := archive.Write(dir, full, nil); err != nil {
		t.Fatal(err)
	}
	sliced, _, err := archive.ReadRange(dir, types.ObservationStartMonth, types.StudyMonths-1)
	if err != nil {
		t.Fatal(err)
	}
	if sliced.Observer == nil {
		t.Fatal("slice through the observation window lost the observer")
	}
	if sliced.Observer.Count() == 0 || sliced.Observer.Count() > full.Observer.Count() {
		t.Errorf("slice observer has %d records, full has %d", sliced.Observer.Count(), full.Observer.Count())
	}
	st, err := mevscope.AnalyzeDataset(sliced, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Report.Fig9 == nil {
		t.Error("window slice analysis produced no Figure 9")
	}

	// A slice starting inside the observation window must still carry the
	// records first seen in the earlier window months: a transaction
	// observed near a month boundary can be mined in the next month, and
	// losing its record would flip it from public to private in the §6
	// inference.
	late, _, err := archive.ReadRange(dir, types.ObservationStartMonth+1, types.StudyMonths-1)
	if err != nil {
		t.Fatal(err)
	}
	if late.Observer == nil {
		t.Fatal("late window slice lost the observer")
	}
	if late.Observer.Count() != full.Observer.Count() {
		t.Errorf("slice from month %d carries %d observations, full archive has %d (pre-slice months dropped)",
			types.ObservationStartMonth+1, late.Observer.Count(), full.Observer.Count())
	}
}

// TestReadRangeEmpty: a range with no segments errors instead of
// returning an empty dataset.
func TestReadRangeEmpty(t *testing.T) {
	s := world(t)
	dir := t.TempDir()
	if _, err := archive.Write(dir, dataset.FromSim(s), nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := archive.ReadRange(dir, 5, 3); err == nil {
		t.Error("inverted range should error")
	}
}

// TestReadEqualsFullRange: Read is ReadRange over the whole window.
func TestReadEqualsFullRange(t *testing.T) {
	s := world(t)
	dir := t.TempDir()
	if _, err := archive.Write(dir, dataset.FromSim(s), nil); err != nil {
		t.Fatal(err)
	}
	a, _, err := archive.Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := archive.ReadRange(dir, 0, types.StudyMonths-1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Chain.Len() != b.Chain.Len() || a.Chain.Timeline != b.Chain.Timeline {
		t.Errorf("Read and full ReadRange differ: %d/%d blocks", a.Chain.Len(), b.Chain.Len())
	}
}
