// Package archive is the segmented on-disk store for collected
// measurement datasets, shaped after flashbots/mempool-dumpster: one
// directory per study month holding that month's blocks, observed
// pending transactions and Flashbots API records, plus a top-level
// manifest with per-file SHA-256 checksums and the run's price history.
//
// Every data file is a column chunk (colcodec.go): one file per (month,
// column) with column-appropriate codecs (delta varints, dictionaries,
// presence-mask payloads) and a per-chunk zone map in the manifest that
// every decode checks against its payload. The price series is one more
// chunk at the archive root:
//
//	<dir>/
//	  manifest.json          version 4, timeline, WETH, checksums, zone maps
//	  prices.col             token → price history
//	  2020-05/               one segment per calendar month
//	    headers.col          block headers + per-block tx counts
//	    txs.col              transactions
//	    receipts.col         execution outcomes
//	    logs.col             event logs
//	    flashbots.col        public blocks-API records
//	    observed.col         observer pending-transaction captures
//	  2020-06/ ...
//
// ReadManifest refuses any other manifest version, including the
// retired versions 1–3; an archive regenerates from its seed with
// `mevscope archive`.
//
// A world is simulated once, archived, and re-analyzed many times: Write
// persists a dataset.Dataset, Read/ReadRange restore one bit-compatibly
// (segments decoded in parallel, every file checksum-verified), and
// `mevscope analyze -from <dir>` reproduces the original run's report
// without re-simulating, month by month as `mevscope serve` builds one
// (RestoreShared, Shared.ReadMonth). StreamWriter is the live-rotation
// path: a streaming follower hands it each study month as it completes,
// so `mevscope archive -live` writes segments while the world grows
// instead of serializing everything at the end. Every write, one rotated
// month or a whole batch, runs all of its (month, column) chunk encoders
// on one worker pool, each chunk deflated at chunkLevel.
//
// There is one reader, and every read decodes whole months. RestoreShared
// restores what a run of months shares — the price series and, once the
// observation window has opened by its last month, every vantage's
// observation log through that month with its coverage table — and
// Shared.ReadMonth decodes one month's block chunks against it;
// ReadRange is the same restore and the same month assembly over a
// range, and ReadBlocks restores one month's sealed blocks for point
// lookups. One function, readSegment, builds blocks from decoded chunks
// for all of them. Reads keep nothing between calls: every chunk a read
// needs is read, checksum-verified and decoded by that read.
// Observation chunks are decoded only by the shared restore, and only
// once the window is open. Because each record must sit in its
// first-seen month's segment (dataset.Partition's layout), a misfiled
// archive is refused by every read that restores the misfiled segment's
// observations.
package archive

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"mevscope/internal/dataset"
	"mevscope/internal/obs"
	"mevscope/internal/types"
)

// Format names an archive encoding by the manifest version it stamps.
// One encoding remains, DefaultFormat; NewStreamWriter still takes a
// Format and refuses any other value.
type Format int

// DefaultFormat is the archive encoding: column chunks with zone maps,
// plus the price series as the prices.col chunk. Its value is the
// manifest version Write stamps and ReadManifest accepts.
const DefaultFormat Format = 4

// ManifestName is the manifest file name inside an archive directory.
const ManifestName = "manifest.json"

// FileInfo describes one data file of the archive: its path relative to
// the archive root, row count, on-disk size and SHA-256 checksum (both
// over the stored, compressed bytes).
type FileInfo struct {
	Name   string `json:"name"`
	Count  int    `json:"count"`
	Bytes  int64  `json:"bytes"`
	SHA256 string `json:"sha256"`
}

// SegmentInfo describes one per-month segment.
type SegmentInfo struct {
	Month      types.Month `json:"month"`
	Label      string      `json:"label"`
	FirstBlock uint64      `json:"first_block"`
	LastBlock  uint64      `json:"last_block"`
	// Blocks, Flashbots, Observed and ObservedV carry logical document
	// counts only — no file stands behind them. They size restore spans
	// and back the stream/batch drift checks.
	Blocks    FileInfo `json:"blocks"`
	Flashbots FileInfo `json:"flashbots"`
	// Observed counts the primary vantage's captures.
	Observed FileInfo `json:"observed"`
	// ObservedV count the additional vantages' captures (ObservedV[i]
	// is vantage i+1). Absent for single-vantage archives.
	ObservedV []FileInfo `json:"observed_v,omitempty"`
	// Columns are the month's column chunks with their zone maps.
	Columns []ColumnInfo `json:"columns,omitempty"`
}

// ColumnInfo describes one column chunk: its integrity record plus
// the zone map readers use to skip the chunk without decoding it. The
// zone map is load-bearing — decoders recompute it from the payload and
// refuse a chunk whose stored bounds disagree.
type ColumnInfo struct {
	Name  string      `json:"name"`
	Month types.Month `json:"month"`
	File  FileInfo    `json:"file"`
	// MinBlock/MaxBlock bound the block heights the chunk's rows touch
	// (header range for block-aligned columns, record heights for
	// flashbots and observed captures). Zero for empty chunks.
	MinBlock uint64 `json:"min_block,omitempty"`
	MaxBlock uint64 `json:"max_block,omitempty"`
	// MinGas/MaxGas bound the chunk's gas prices: bid prices for the tx
	// column, effective prices for receipts. Absent elsewhere.
	MinGas types.Amount `json:"min_gas,omitempty"`
	MaxGas types.Amount `json:"max_gas,omitempty"`
}

// ObserverInfo records the observation window bounds.
type ObserverInfo struct {
	Start uint64 `json:"start"`
	Stop  uint64 `json:"stop"`
}

// VantageInfo records one observation vantage's placement — enough to
// restore p2p observers that answer Seen/Record exactly like the
// original run's.
type VantageInfo struct {
	Node     int     `json:"node"`
	MissRate float64 `json:"miss_rate,omitempty"`
}

// Manifest is the archive's index and integrity record.
type Manifest struct {
	Version     int            `json:"version"`
	Timeline    types.Timeline `json:"timeline"`
	WETH        types.Address  `json:"weth"`
	Head        uint64         `json:"head"`
	TotalBlocks int            `json:"total_blocks"`
	Observer    *ObserverInfo  `json:"observer,omitempty"`
	// Vantages describes the observation network's vantage list, in
	// configuration order. Absent when the run never opened its
	// observation window (implied: one vantage at node 0).
	Vantages []VantageInfo     `json:"vantages,omitempty"`
	Prices   FileInfo          `json:"prices"`
	Segments []SegmentInfo     `json:"segments"`
	Meta     map[string]string `json:"meta,omitempty"`
}

// Window returns the first and last month the archive has segments for.
func (m *Manifest) Window() (first, last types.Month) {
	if len(m.Segments) == 0 {
		return 0, 0
	}
	return m.Segments[0].Month, m.Segments[len(m.Segments)-1].Month
}

// SegmentLabel names a month's segment directory, e.g. "2020-05".
func SegmentLabel(m types.Month) string { return m.Label() }

// Write persists a dataset into dir, returning the manifest. meta carries
// free-form provenance (seed, scenario, scale) for the manifest; it does
// not affect restoration. Every chunk of every month is encoded on one
// worker pool — the chunks are independent — and the manifest is written
// last, so a crashed Write leaves no manifest and Read refuses the
// directory.
func Write(dir string, ds *dataset.Dataset, meta map[string]string) (*Manifest, error) {
	if ds.Chain == nil || ds.Chain.Head() == nil {
		return nil, fmt.Errorf("archive: dataset has no blocks")
	}
	sw, err := NewStreamWriter(dir, ds.Chain.Timeline, ds.WETH, DefaultFormat, meta)
	if err != nil {
		return nil, err
	}
	return sw.Finalize(ds)
}

// checksum computes the SHA-256 and size of a file.
func checksum(path string) (string, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(h.Sum(nil)), n, nil
}

// fileInfoFor builds a data file's integrity record with a path relative
// to the archive root.
func fileInfoFor(root, path string, count int) (FileInfo, error) {
	rel, err := filepath.Rel(root, path)
	if err != nil {
		return FileInfo{}, err
	}
	sum, size, err := checksum(path)
	if err != nil {
		return FileInfo{}, err
	}
	return FileInfo{Name: filepath.ToSlash(rel), Count: count, Bytes: size, SHA256: sum}, nil
}

// ReadManifest loads and sanity-checks an archive's manifest without
// touching the data files. It refuses every version but DefaultFormat's:
// versions 1 and 2 held JSON documents, and version 3 kept the price
// series in a retired frame codec (prices.seg). A manifest is untrusted
// input, and every read joins its file names to dir, so it also refuses
// a chunk or prices file name that is not local to the archive — one
// that is absolute, empty or climbs out with "..". Readers find a
// block's month by the segments' block ranges, so they must ascend
// without overlap, each equal to its headers chunk's zone map.
func ReadManifest(dir string) (*Manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	var man Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return nil, fmt.Errorf("archive: manifest: %w", err)
	}
	if man.Version != int(DefaultFormat) {
		return nil, fmt.Errorf("archive: %s has manifest version %d, this build reads only version %d; regenerate the archive with `mevscope archive`",
			dir, man.Version, DefaultFormat)
	}
	if man.Timeline.BlocksPerMonth == 0 {
		return nil, fmt.Errorf("archive: manifest has no timeline")
	}
	if err := checkLocal(man.Prices.Name); err != nil {
		return nil, err
	}
	var prev uint64 // the last block of the segments before si
	for i, si := range man.Segments {
		headers, err := findColumn(si, ColHeaders)
		if err != nil {
			return nil, err
		}
		if si.FirstBlock > si.LastBlock || i > 0 && si.FirstBlock <= prev ||
			headers.MinBlock != si.FirstBlock || headers.MaxBlock != si.LastBlock {
			return nil, fmt.Errorf("archive: manifest segment %s has blocks %d..%d after blocks through %d, its headers chunk %d..%d",
				si.Label, si.FirstBlock, si.LastBlock, prev, headers.MinBlock, headers.MaxBlock)
		}
		prev = si.LastBlock
		for _, ci := range si.Columns {
			if err := checkLocal(ci.File.Name); err != nil {
				return nil, err
			}
		}
	}
	return &man, nil
}

// checkLocal refuses a manifest file name that does not name a file
// inside the archive.
func checkLocal(name string) error {
	if !filepath.IsLocal(filepath.FromSlash(name)) {
		return fmt.Errorf("archive: manifest names file %q outside the archive", name)
	}
	return nil
}

// segBytes is a segment's total on-disk size per the manifest.
func segBytes(si SegmentInfo) int64 {
	var bytes int64
	for _, ci := range si.Columns {
		bytes += ci.File.Bytes
	}
	return bytes
}

// blockBytes is the on-disk size of a segment's block chunks: every
// chunk but the observation logs ("observed", "observed_vN"), which a
// month read takes from the shared restore.
func blockBytes(si SegmentInfo) int64 {
	var bytes int64
	for _, ci := range si.Columns {
		if !strings.HasPrefix(ci.Name, ColObserved) {
			bytes += ci.File.Bytes
		}
	}
	return bytes
}

// DataBytes is the archive's total on-disk data size per the manifest:
// every segment's chunks plus the price history.
func (m *Manifest) DataBytes() int64 {
	bytes := m.Prices.Bytes
	for _, si := range m.Segments {
		bytes += segBytes(si)
	}
	return bytes
}

// ReadOptions tune an archive read: RestoreShared and Shared.ReadMonth.
type ReadOptions struct {
	// Workers sizes the parallel segment-decode pool (< 1 = all cores).
	Workers int
	// Span, when non-nil, is the tracing parent the restore records
	// itself under: one "archive:restore" span with an "archive:decode"
	// child per segment read, and under it one "archive:column" child per
	// chunk decoded. Nil disables recording at zero cost (internal/obs).
	Span *obs.Span
}

// Read restores the full dataset from a segmented archive, verifying
// every file against its manifest checksum. The result is bit-compatible
// with the written dataset: analyzing it reproduces the original report.
func Read(dir string) (*dataset.Dataset, *Manifest, error) {
	return ReadRange(dir, 0, types.StudyMonths-1)
}

// ReadRange restores only the segments whose month falls in [from, to]
// (inclusive) as one dataset: a slice of four months reads four segment
// directories, not the whole archive. `mevscope serve` and `mevscope
// analyze` read month by month instead; their reports are tested
// against a full analysis of its dataset.
//
// It is the month reader of Shared.ReadMonth run over a range, on every
// core: the state the range shares is restored first — the price
// series, plus, when the observation window has opened by the slice
// end, every vantage's observation log of every segment through the
// slice end together with its coverage table (see RestoreShared) — then
// the selected segments' block chunks decode in parallel (each month's
// chunks are independent) and are assembled in month order, so the
// result is identical to a sequential read. The observation logs run
// from the archive's first month, not just the sliced ones, because a
// transaction first seen near a month boundary can be mined in the next
// month, and dropping its record would silently flip it from public to
// private in the §6 inference; an archive that files a record past its
// first-seen month is refused. The restored chain's timeline starts at
// the first selected month, so block→month mapping stays aligned with
// the full archive, and every file is checksum-verified.
func ReadRange(dir string, from, to types.Month) (*dataset.Dataset, *Manifest, error) {
	man, err := ReadManifest(dir)
	if err != nil {
		return nil, nil, err
	}
	var segs []SegmentInfo
	for _, seg := range man.Segments {
		if seg.Month >= from && seg.Month <= to {
			segs = append(segs, seg)
		}
	}
	if len(segs) == 0 {
		first, last := man.Window()
		return nil, nil, fmt.Errorf("archive: no segments in months %s..%s (archive covers %s..%s)",
			from.Label(), to.Label(), first.Label(), last.Label())
	}
	sh, err := restoreShared(dir, man, to, 0, nil)
	if err != nil {
		return nil, nil, err
	}
	ds, err := sh.readMonths(segs, 0, nil)
	if err != nil {
		return nil, nil, err
	}
	return ds, man, nil
}
