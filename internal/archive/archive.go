// Package archive is the segmented on-disk store for collected
// measurement datasets, shaped after flashbots/mempool-dumpster: one
// directory per study month holding that month's blocks, observed
// pending transactions and Flashbots API records, plus a top-level
// manifest with per-file SHA-256 checksums and the run's price history.
//
// Three on-disk formats coexist, auto-detected through the manifest's
// version field:
//
//	v1  JSON-lines data files (one JSON document per line)
//	v2  gzip-compressed binary segment files: a 5-byte plain header
//	    (magic "MSEG" + format byte) followed by a gzip stream of
//	    length-prefixed JSON document frames, with a sparse per-segment
//	    block index in the manifest for sub-segment random access
//	v3  column-chunk files: one file per (month, column) with
//	    column-appropriate codecs (delta varints, dictionaries,
//	    presence-mask payloads) and per-chunk zone maps in the
//	    manifest, so reads decode only the columns — and touch only
//	    the chunks — a query needs (ReadOptions.Columns)
//
// The directory layout is the same shape for all three (v3 shown):
//
//	<dir>/
//	  manifest.json          version, timeline, WETH, checksums, zone maps
//	  prices.seg             token → price history (v2 frame codec)
//	  2020-05/               one segment per calendar month
//	    headers.col          block headers + per-block tx counts
//	    txs.col              transactions
//	    receipts.col         execution outcomes
//	    logs.col             event logs
//	    flashbots.col        public blocks-API records
//	    observed.col         observer pending-transaction captures
//	  2020-06/ ...
//
// A world is simulated once, archived, and re-analyzed many times: Write
// persists a dataset.Dataset (v3 by default, months encoded in
// parallel), Read/ReadRange restore one bit-compatibly (segments decoded
// in parallel, every file checksum-verified), and `mevscope analyze
// -from <dir>` reproduces the original run's report without
// re-simulating. v1 and v2 archives written by earlier releases keep
// reading transparently. StreamWriter is the live-rotation path: a
// streaming follower hands it each study month as it completes, so
// `mevscope archive -live` writes segments while the world grows instead
// of serializing everything at the end.
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
	"sync/atomic"

	"mevscope/internal/dataset"
	"mevscope/internal/flashbots"
	"mevscope/internal/obs"
	"mevscope/internal/p2p"
	"mevscope/internal/parallel"
	"mevscope/internal/prices"
	"mevscope/internal/types"
)

// Format selects the on-disk encoding of an archive.
type Format int

// Supported archive formats. The Format value doubles as the manifest's
// version field.
const (
	// FormatV1 is the original JSON-lines encoding.
	FormatV1 Format = 1
	// FormatV2 is the compressed frame encoding with a block index.
	FormatV2 Format = 2
	// FormatV3 is the column-chunk encoding with zone maps.
	FormatV3 Format = 3
)

// DefaultFormat is what Write uses: the current format.
const DefaultFormat = FormatV3

// formats is the single format registry: CLI parsing, help strings,
// error messages and manifest validation all derive from it, so adding
// a format updates every surface at once.
var formats = []struct {
	format Format
	name   string
	desc   string
}{
	{FormatV3, "v3", "column chunks with zone maps"},
	{FormatV2, "v2", "compressed frames"},
	{FormatV1, "v1", "JSON lines"},
}

// FormatNames lists the CLI spellings of every supported format,
// current first.
func FormatNames() []string {
	names := make([]string, len(formats))
	for i, f := range formats {
		names[i] = f.name
	}
	return names
}

// FormatHelp describes the supported formats for CLI flag help, e.g.
// "v3 (column chunks with zone maps), v2 (compressed frames), v1 (JSON lines)".
func FormatHelp() string {
	parts := make([]string, len(formats))
	for i, f := range formats {
		parts[i] = fmt.Sprintf("%s (%s)", f.name, f.desc)
	}
	return strings.Join(parts, ", ")
}

// ParseFormat parses a CLI-style format name ("v1", "v2", "v3").
func ParseFormat(s string) (Format, error) {
	for _, f := range formats {
		if f.name == s {
			return f.format, nil
		}
	}
	return 0, fmt.Errorf("archive: unknown format %q (want %s)", s, strings.Join(FormatNames(), ", "))
}

// String names the format like the CLI flag spells it.
func (f Format) String() string { return fmt.Sprintf("v%d", int(f)) }

func (f Format) valid() bool {
	for _, sf := range formats {
		if sf.format == f {
			return true
		}
	}
	return false
}

// ManifestName is the manifest file name inside an archive directory.
const ManifestName = "manifest.json"

// FileInfo describes one data file of the archive: its path relative to
// the archive root, document count, on-disk size and SHA-256 checksum
// (both over the stored bytes — the compressed stream for v2).
type FileInfo struct {
	Name   string `json:"name"`
	Count  int    `json:"count"`
	Bytes  int64  `json:"bytes"`
	SHA256 string `json:"sha256"`
}

// BlockIndexEntry is one sparse block-index point of a v2 blocks file:
// frame ordinal, the block number that frame carries, and the frame's
// byte offset in the uncompressed stream. A reader seeking block n
// decompresses up to the last entry at or below n and skips those bytes
// without JSON-decoding a single frame.
type BlockIndexEntry struct {
	Frame  int    `json:"frame"`
	Block  uint64 `json:"block"`
	Offset int64  `json:"offset"`
}

// SegmentInfo describes one per-month segment.
type SegmentInfo struct {
	Month      types.Month `json:"month"`
	Label      string      `json:"label"`
	FirstBlock uint64      `json:"first_block"`
	LastBlock  uint64      `json:"last_block"`
	Blocks     FileInfo    `json:"blocks"`
	Flashbots  FileInfo    `json:"flashbots"`
	// Observed is the primary vantage's capture file.
	Observed FileInfo `json:"observed"`
	// ObservedV are the additional vantages' capture files (ObservedV[i]
	// is vantage i+1) — one frame stream per vantage. Absent for
	// single-vantage archives, which read exactly as before.
	ObservedV []FileInfo `json:"observed_v,omitempty"`
	// Index is the sparse block index of the blocks file (v2 only).
	Index []BlockIndexEntry `json:"index,omitempty"`
	// Columns are the month's column chunks with their zone maps (v3
	// only). The classic FileInfo fields above then carry logical
	// document counts with no file behind them.
	Columns []ColumnInfo `json:"columns,omitempty"`
}

// ColumnInfo describes one v3 column chunk: its integrity record plus
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
	// configuration order. Absent on archives written before the
	// multi-vantage format (implied: one vantage at node 0).
	Vantages []VantageInfo     `json:"vantages,omitempty"`
	Prices   FileInfo          `json:"prices"`
	Segments []SegmentInfo     `json:"segments"`
	Meta     map[string]string `json:"meta,omitempty"`
}

// Format returns the archive's on-disk format.
func (m *Manifest) Format() Format { return Format(m.Version) }

// Window returns the first and last month the archive has segments for.
func (m *Manifest) Window() (first, last types.Month) {
	if len(m.Segments) == 0 {
		return 0, 0
	}
	return m.Segments[0].Month, m.Segments[len(m.Segments)-1].Month
}

// SegmentLabel names a month's segment directory, e.g. "2020-05".
func SegmentLabel(m types.Month) string { return m.Label() }

// priceDoc is the prices file's document shape: one token's full history.
type priceDoc struct {
	Token  types.Address  `json:"token"`
	Points []prices.Point `json:"points"`
}

// Write persists a dataset into dir in the current default format (v2),
// returning the manifest. meta carries free-form provenance (seed,
// scenario, scale) for the manifest; it does not affect restoration.
func Write(dir string, ds *dataset.Dataset, meta map[string]string) (*Manifest, error) {
	return WriteFormat(dir, ds, meta, DefaultFormat)
}

// WriteFormat persists a dataset into dir in the given format. Months
// are encoded in parallel — each segment's files are independent — and
// the manifest is written last, so a crashed Write leaves no manifest
// and Read refuses the directory.
func WriteFormat(dir string, ds *dataset.Dataset, meta map[string]string, format Format) (*Manifest, error) {
	if ds.Chain == nil || ds.Chain.Head() == nil {
		return nil, fmt.Errorf("archive: dataset has no blocks")
	}
	sw, err := NewStreamWriter(dir, ds.Chain.Timeline, ds.WETH, format, meta)
	if err != nil {
		return nil, err
	}
	return sw.Finalize(ds)
}

// Recompress restores the archive at src — whatever format it holds —
// and rewrites it into dst in the given format, carrying the source
// manifest's meta over. The restored dataset drives a normal
// WriteFormat, so dst is byte-identical to what archiving the original
// world directly in that format would have produced.
func Recompress(src, dst string, format Format) (*Manifest, error) {
	ds, man, err := Read(src)
	if err != nil {
		return nil, err
	}
	return WriteFormat(dst, ds, man.Meta, format)
}

// writeSegment persists one month's files in the given format and
// returns its manifest entry.
func writeSegment(dir string, format Format, seg *dataset.Segment) (SegmentInfo, error) {
	if format == FormatV3 {
		return writeSegmentV3(dir, seg)
	}
	label := SegmentLabel(seg.Month)
	segDir := filepath.Join(dir, label)
	info := SegmentInfo{
		Month:      seg.Month,
		Label:      label,
		FirstBlock: seg.Blocks[0].Header.Number,
		LastBlock:  seg.Blocks[len(seg.Blocks)-1].Header.Number,
	}
	var err error
	// writeDocs dispatches on the format; extra vantage files use it too,
	// so both encodings carry the full observation network.
	writeDocs := func(name string, docs []p2p.ObservedTx) (FileInfo, error) {
		if format == FormatV1 {
			return writeJSONL(dir, segDir, name, docs)
		}
		fi, _, err := writeSeg(dir, segDir, name, docs)
		return fi, err
	}
	if format == FormatV1 {
		if info.Blocks, err = writeJSONL(dir, segDir, "blocks", seg.Blocks); err != nil {
			return info, err
		}
		if info.Flashbots, err = writeJSONL(dir, segDir, "flashbots", seg.FBBlocks); err != nil {
			return info, err
		}
	} else {
		var offsets []int64
		if info.Blocks, offsets, err = writeSeg(dir, segDir, "blocks", seg.Blocks); err != nil {
			return info, err
		}
		info.Index = blockIndex(seg.Blocks, offsets)
		if info.Flashbots, _, err = writeSeg(dir, segDir, "flashbots", seg.FBBlocks); err != nil {
			return info, err
		}
	}
	if info.Observed, err = writeDocs("observed", seg.Observed); err != nil {
		return info, err
	}
	for i, recs := range seg.ObservedV {
		fi, err := writeDocs(fmt.Sprintf("observed_v%d", i+1), recs)
		if err != nil {
			return info, err
		}
		info.ObservedV = append(info.ObservedV, fi)
	}
	return info, nil
}

// writePrices persists the price series as the archive's prices file.
func writePrices(dir string, format Format, pr *prices.Series) (FileInfo, error) {
	var pdocs []priceDoc
	if pr != nil {
		for _, tok := range pr.Tokens() {
			pdocs = append(pdocs, priceDoc{Token: tok, Points: pr.History(tok)})
		}
	}
	if format == FormatV1 {
		return writeJSONL(dir, dir, "prices", pdocs)
	}
	fi, _, err := writeSeg(dir, dir, "prices", pdocs)
	return fi, err
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

// verifyFile checks a data file against its manifest record before any
// decode touches it.
func verifyFile(root string, fi FileInfo) (string, error) {
	path := filepath.Join(root, filepath.FromSlash(fi.Name))
	sum, size, err := checksum(path)
	if err != nil {
		return "", fmt.Errorf("archive: %w", err)
	}
	if sum != fi.SHA256 || size != fi.Bytes {
		return "", fmt.Errorf("archive: %s is corrupt (checksum mismatch)", fi.Name)
	}
	return path, nil
}

// ReadManifest loads and sanity-checks an archive's manifest without
// touching the data files. Every format version is accepted; the
// version field routes every later read to the right decoder.
func ReadManifest(dir string) (*Manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	var man Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return nil, fmt.Errorf("archive: manifest: %w", err)
	}
	if !Format(man.Version).valid() {
		return nil, fmt.Errorf("archive: unsupported version %d (want %s)",
			man.Version, strings.Join(FormatNames(), ", "))
	}
	if man.Timeline.BlocksPerMonth == 0 {
		return nil, fmt.Errorf("archive: manifest has no timeline")
	}
	return &man, nil
}

// SegmentCache caches decoded month segments across reads. internal/query
// plugs its segment-granular LRU in here so overlapping month ranges
// share decoded segments instead of re-reading the disk; a nil cache
// reads every segment fresh. Implementations must be safe for concurrent
// use — ReadRange decodes segments in parallel.
type SegmentCache interface {
	// Get returns the cached segment for (dir, month), if present.
	Get(dir string, m types.Month) (*dataset.Segment, bool)
	// Add caches a freshly decoded segment; bytes is its on-disk size,
	// for size-aware eviction policies.
	Add(dir string, m types.Month, seg *dataset.Segment, bytes int64)
}

// ChunkCache is the column-granular upgrade of SegmentCache: a
// SegmentCache that also implements it caches v3 reads per decoded
// column chunk instead of per month, so a projected read warms exactly
// the chunks it decoded and a later full read reuses them. The cached
// value is the decoder's immutable column representation — opaque to
// callers, who store and return it as-is. Implementations must be safe
// for concurrent use.
type ChunkCache interface {
	// GetChunk returns the cached decode of (dir, month, column).
	GetChunk(dir string, m types.Month, col string) (any, bool)
	// AddChunk caches a freshly decoded column chunk; bytes is its
	// on-disk size.
	AddChunk(dir string, m types.Month, col string, v any, bytes int64)
}

// ReadStats, when attached to ReadOptions, accumulates byte-level
// accounting of a read: how much stored data was decoded, and how many
// chunks the projection and zone maps skipped or the cache served. Safe
// for concurrent use (reads decode in parallel).
type ReadStats struct {
	// DecodedBytes counts stored (compressed) bytes actually decoded.
	DecodedBytes atomic.Int64
	// DecodedChunks counts chunk/segment files decoded.
	DecodedChunks atomic.Int64
	// SkippedChunks counts v3 chunks skipped without decoding.
	SkippedChunks atomic.Int64
	// CachedChunks counts chunks (or whole segments) served from cache.
	CachedChunks atomic.Int64
}

// segBytes is a segment's total on-disk size per the manifest.
func segBytes(si SegmentInfo) int64 {
	bytes := si.Blocks.Bytes + si.Flashbots.Bytes + si.Observed.Bytes
	for _, fi := range si.ObservedV {
		bytes += fi.Bytes
	}
	for _, ci := range si.Columns {
		bytes += ci.File.Bytes
	}
	return bytes
}

// DataBytes is the archive's total on-disk data size per the manifest:
// every segment's files plus the price history.
func (m *Manifest) DataBytes() int64 {
	bytes := m.Prices.Bytes
	for _, si := range m.Segments {
		bytes += segBytes(si)
	}
	return bytes
}

// ReadOptions tune a ReadRangeWith call.
type ReadOptions struct {
	// Workers sizes the parallel segment-decode pool (< 1 = all cores).
	Workers int
	// Cache, when non-nil, is consulted before and filled after each
	// segment decode. If it also implements ChunkCache, v3 reads cache
	// per column chunk instead of per month.
	Cache SegmentCache
	// Span, when non-nil, is the tracing parent the restore records
	// itself under: one "archive:restore" span with an "archive:decode"
	// child per segment actually decoded (cache hits record nothing);
	// v3 decodes additionally record one "archive:column" child per
	// chunk. Nil disables recording at zero cost (internal/obs).
	Span *obs.Span
	// Columns projects the read onto a column subset (v3 column names,
	// see ColumnNames): only the selected columns are decoded and
	// populated, and the rest of each segment's chunks are skipped on
	// disk. Nil restores everything. The set is closed over its
	// dependencies (headers always load; logs pull receipts; receipts
	// and txs travel together), a projection without "observed" skips
	// the observer restore entirely, and the resulting dataset records
	// the projection in its Projection field. On v1/v2 archives the
	// selection is honored but decodes the full segment (those formats
	// cannot skip bytes per column).
	Columns []string
	// Stats, when non-nil, accumulates decode-byte accounting.
	Stats *ReadStats
}

// Read restores the full dataset from a segmented archive, verifying
// every file against its manifest checksum. The result is bit-compatible
// with the written dataset: analyzing it reproduces the original report.
func Read(dir string) (*dataset.Dataset, *Manifest, error) {
	return ReadRange(dir, 0, types.StudyMonths-1)
}

// ReadRange restores only the segments whose month falls in [from, to]
// (inclusive) — the random-access path behind `mevscope serve`'s month
// slicing and `mevscope analyze -range`: a query for four months reads
// four segment directories, not the whole archive.
func ReadRange(dir string, from, to types.Month) (*dataset.Dataset, *Manifest, error) {
	return ReadRangeWith(dir, from, to, ReadOptions{})
}

// ReadRangeWith is ReadRange with a tunable decode pool and an optional
// segment cache. Segments decode in parallel (each month's files are
// independent) and are assembled in month order, so the result is
// identical to a sequential read. The restored chain's timeline starts
// at the first selected month, so block→month mapping stays aligned with
// the full archive, and every freshly read file is checksum-verified.
// The observer is restored only when the selected range reaches into the
// observation window; its observation log is read from every segment up
// to the slice end — not just the sliced months — because a transaction
// first seen near a month boundary can be mined in the next month, and
// dropping its record would silently flip it from public to private in
// the §6 inference (the logs are tiny next to the block files, so the
// random-access win is preserved).
func ReadRangeWith(dir string, from, to types.Month, opt ReadOptions) (*dataset.Dataset, *Manifest, error) {
	man, err := ReadManifest(dir)
	if err != nil {
		return nil, nil, err
	}
	cols, norm, err := normalizeColumns(opt.Columns)
	if err != nil {
		return nil, nil, err
	}
	var segs, preSegs []SegmentInfo
	for _, seg := range man.Segments {
		switch {
		case seg.Month >= from && seg.Month <= to:
			segs = append(segs, seg)
		case seg.Month < from:
			preSegs = append(preSegs, seg)
		}
	}
	if len(segs) == 0 {
		first, last := man.Window()
		return nil, nil, fmt.Errorf("archive: no segments in months %s..%s (archive covers %s..%s)",
			from.Label(), to.Label(), first.Label(), last.Label())
	}
	full := len(segs) == len(man.Segments)

	rsp := opt.Span.Child(obs.StageRestore)
	defer rsp.End()
	if rsp != nil {
		blocks, bytes := 0, int64(0)
		for _, si := range segs {
			blocks += si.Blocks.Count
			bytes += segBytesFor(si, cols, man.Format())
		}
		rsp.SetBlocks(blocks)
		rsp.SetBytes(bytes)
	}

	// Decode the selected segments in parallel, reusing cached decodes.
	decoded := parallel.MapSpan(rsp, len(segs), opt.Workers, func(i int) decodeResult {
		seg, err := decodeSegment(dir, man, segs[i], cols, opt, rsp)
		return decodeResult{seg: seg, err: err}
	})
	parts := make([]*dataset.Segment, len(decoded))
	for i, r := range decoded {
		if r.err != nil {
			return nil, nil, r.err
		}
		parts[i] = r.seg
	}

	// Pre-slice observation logs: reuse a cached segment's, else read just
	// the (tiny) observed files — every vantage's, so a restored slice
	// classifies against the same observation network as the full
	// archive. A projection without the observed column skips all of it.
	vinfos := vantageInfos(man)
	observedV := make([][]p2p.ObservedTx, len(vinfos))
	appendLogs := func(logs [][]p2p.ObservedTx) {
		for v, recs := range logs {
			if v < len(observedV) {
				observedV[v] = append(observedV[v], recs...)
			}
		}
	}
	if cols.want(ColObserved) {
		pre, err := readObservationLogs(dir, man, preSegs, opt, rsp)
		if err != nil {
			return nil, nil, err
		}
		for _, logs := range pre {
			appendLogs(logs)
		}
	}

	tl := man.Timeline
	tl.StartBlock = man.Timeline.FirstBlockOfMonth(segs[0].Month)
	tl.FirstMonth = segs[0].Month
	ds, err := dataset.Assemble(tl, man.WETH, parts)
	if err != nil {
		return nil, nil, fmt.Errorf("archive: %w", err)
	}
	ds.Projection = norm
	for _, seg := range parts {
		appendLogs(segmentLogs(seg))
	}

	wantBlocks, wantHead := man.TotalBlocks, man.Head
	if !full {
		wantBlocks = 0
		for _, seg := range segs {
			wantBlocks += seg.Blocks.Count
		}
		wantHead = segs[len(segs)-1].LastBlock
	}
	if ds.Chain.Len() != wantBlocks {
		return nil, nil, fmt.Errorf("archive: restored %d blocks, manifest says %d", ds.Chain.Len(), wantBlocks)
	}
	head := ds.Chain.Head()
	if head == nil || head.Header.Number != wantHead {
		return nil, nil, fmt.Errorf("archive: restored head does not match manifest head %d", wantHead)
	}
	if cols.want(ColObserved) && man.Observer != nil && man.Observer.Start <= head.Header.Number {
		for i, vi := range vinfos {
			ds.Vantages = append(ds.Vantages,
				p2p.RestoreVantage(vi.Node, observedV[i], man.Observer.Start, man.Observer.Stop))
		}
		ds.Observer = ds.Vantages[0]
	}
	if ds.Prices, err = readPrices(dir, man); err != nil {
		return nil, nil, err
	}
	return ds, man, nil
}

// segBytesFor is the on-disk size a read of si under a projection
// actually covers: selected chunk bytes for a projected v3 read, the
// whole segment otherwise.
func segBytesFor(si SegmentInfo, cols columnSet, format Format) int64 {
	if cols == nil || format != FormatV3 {
		return segBytes(si)
	}
	var bytes int64
	for _, ci := range si.Columns {
		if cols.want(ci.Name) {
			bytes += ci.File.Bytes
		}
	}
	return bytes
}

// decodeSegment restores one selected segment, routing by format and
// reusing cached decodes. v1/v2 segments (and full v3 reads against a
// month-granular cache) cache whole months; a chunk-granular cache
// takes over inside readSegmentV3. Projected v3 reads never touch the
// month-granular cache — a partial segment must not masquerade as a
// full one.
func decodeSegment(dir string, man *Manifest, si SegmentInfo, cols columnSet, opt ReadOptions, rsp *obs.Span) (*dataset.Segment, error) {
	if man.Format() == FormatV3 {
		_, chunked := opt.Cache.(ChunkCache)
		if cols == nil && !chunked && opt.Cache != nil {
			if seg, ok := opt.Cache.Get(dir, si.Month); ok {
				if opt.Stats != nil {
					opt.Stats.CachedChunks.Add(1)
				}
				return seg, nil
			}
			seg, err := readSegmentV3(dir, si, nil, opt, rsp)
			if err != nil {
				return nil, err
			}
			opt.Cache.Add(dir, si.Month, seg, segBytes(si))
			return seg, nil
		}
		return readSegmentV3(dir, si, cols, opt, rsp)
	}
	if opt.Cache != nil {
		if seg, ok := opt.Cache.Get(dir, si.Month); ok {
			if opt.Stats != nil {
				opt.Stats.CachedChunks.Add(1)
			}
			return seg, nil
		}
	}
	dsp := rsp.Child(obs.StageDecode)
	dsp.SetLabel(si.Label)
	dsp.SetBlocks(si.Blocks.Count)
	dsp.SetBytes(segBytes(si))
	seg, err := readSegment(dir, man, si)
	dsp.End()
	if err != nil {
		return nil, err
	}
	if opt.Stats != nil {
		opt.Stats.DecodedBytes.Add(segBytes(si))
		opt.Stats.DecodedChunks.Add(int64(3 + len(si.ObservedV)))
	}
	if opt.Cache != nil {
		opt.Cache.Add(dir, si.Month, seg, segBytes(si))
	}
	return seg, nil
}

// decodeResult carries one segment decode across the parallel fan-out.
type decodeResult struct {
	seg *dataset.Segment
	err error
}

// readSegment decodes one month's files into a dataset segment, sealing
// every block and verifying transaction identity.
func readSegment(dir string, man *Manifest, si SegmentInfo) (*dataset.Segment, error) {
	format := man.Format()
	blocks, err := readDocs[*types.Block](dir, format, si.Blocks)
	if err != nil {
		return nil, err
	}
	if err := sealAndVerify(si.Label, blocks); err != nil {
		return nil, err
	}
	fb, err := readDocs[flashbots.BlockRecord](dir, format, si.Flashbots)
	if err != nil {
		return nil, err
	}
	obs, err := readDocs[p2p.ObservedTx](dir, format, si.Observed)
	if err != nil {
		return nil, err
	}
	var extra [][]p2p.ObservedTx
	for _, fi := range si.ObservedV {
		recs, err := readDocs[p2p.ObservedTx](dir, format, fi)
		if err != nil {
			return nil, err
		}
		extra = append(extra, recs)
	}
	return &dataset.Segment{Month: si.Month, Blocks: blocks, FBBlocks: fb, Observed: obs, ObservedV: extra}, nil
}

// sealAndVerify seals restored blocks and checks receipt-vs-recomputed
// transaction identity. Transaction identity is the content-derived
// hash; the stored receipts reference the identities the original run
// used. A mismatch means some transaction was mutated after hashing
// during the run — refuse rather than mis-link every record. Sealing
// also caches every transaction hash, so the segment is safe to share
// across goroutines afterwards.
func sealAndVerify(label string, blocks []*types.Block) error {
	for _, b := range blocks {
		b.Seal()
		for i, rcpt := range b.Receipts {
			if i < len(b.Txs) && rcpt.TxHash != b.Txs[i].Hash() {
				return fmt.Errorf("archive: segment %s block %d tx %d: identity drift (receipt %v vs recomputed %v)",
					label, b.Header.Number, i, rcpt.TxHash.Short(), b.Txs[i].Hash().Short())
			}
		}
	}
	return nil
}

// readDocs decodes one data file in the archive's format after verifying
// its checksum and document count against the manifest.
func readDocs[T any](root string, format Format, fi FileInfo) ([]T, error) {
	if format == FormatV1 {
		return readJSONL[T](root, fi)
	}
	return readSeg[T](root, fi)
}
