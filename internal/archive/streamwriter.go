package archive

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"mevscope/internal/dataset"
	"mevscope/internal/types"
)

// StreamWriter builds an archive incrementally, one month segment at a
// time — the disk side of a streaming follower's OnMonthEnd hook.
// `mevscope archive -live` rotates each study month to disk the moment
// it completes, so a long collection run's memory-to-disk handoff is
// spread over the run instead of paid all at once at the end; Finalize
// writes whatever months remain, the price history and the manifest.
// The batch Write path runs on the same writer (everything is
// "remaining" at Finalize), so a rotated archive is file-for-file
// identical to a batch one. Each write — one rotated month or every
// remaining one — encodes all its column chunks on one worker pool
// (writeSegments).
//
// A StreamWriter is not safe for concurrent use; the follower's
// OnMonthEnd hook already serializes months in ascending order.
//
// Lifecycle guards: WriteSegment refuses non-ascending months (an
// out-of-order rotation would silently shadow an earlier month) and
// anything after finalize; Finalize itself is idempotent — a second call
// is a no-op returning the already-written manifest, so callers layering
// defer-style cleanup over an explicit finalize never double-write.
type StreamWriter struct {
	dir  string
	man  *Manifest
	done bool
}

// NewStreamWriter creates the archive directory and an empty manifest.
// format must be DefaultFormat, the one encoding. The manifest is only
// written by Finalize: a run that dies mid-stream leaves no manifest, and
// Read refuses the directory.
func NewStreamWriter(dir string, tl types.Timeline, weth types.Address, format Format, meta map[string]string) (*StreamWriter, error) {
	if format != DefaultFormat {
		return nil, fmt.Errorf("archive: unsupported format %d (this build writes only version %d)", format, DefaultFormat)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &StreamWriter{
		dir: dir,
		man: &Manifest{Version: int(DefaultFormat), Timeline: tl, WETH: weth, Meta: meta},
	}, nil
}

// Segments returns how many month segments have been written so far.
func (w *StreamWriter) Segments() int { return len(w.man.Segments) }

// WriteSegment persists one completed month. Months must arrive in
// ascending order with at least one block each.
func (w *StreamWriter) WriteSegment(seg *dataset.Segment) error {
	if w.done {
		return fmt.Errorf("archive: stream writer already finalized")
	}
	if len(seg.Blocks) == 0 {
		return fmt.Errorf("archive: segment %s has no blocks", seg.Month.Label())
	}
	if n := len(w.man.Segments); n > 0 && seg.Month <= w.man.Segments[n-1].Month {
		return fmt.Errorf("archive: segment %s arrived after %s (months must ascend)",
			seg.Month.Label(), w.man.Segments[n-1].Label)
	}
	infos, err := writeSegments(w.dir, []*dataset.Segment{seg})
	if err != nil {
		return err
	}
	w.man.Segments = append(w.man.Segments, infos...)
	return nil
}

// Finalize writes every month not yet rotated (all their chunks on one
// worker pool), the price history, the observer window and the
// manifest, completing the archive. ds is the full collected dataset;
// months already written by WriteSegment are skipped, so the streaming
// and batch paths produce identical archives.
func (w *StreamWriter) Finalize(ds *dataset.Dataset) (*Manifest, error) {
	if w.done {
		// Repeated finalize is a no-op: the archive on disk is complete and
		// the manifest already written — hand it back instead of erroring,
		// so an explicit Finalize plus a deferred one compose safely.
		return w.man, nil
	}
	head := ds.Chain.Head()
	if head == nil {
		return nil, fmt.Errorf("archive: dataset has no blocks")
	}
	last := types.Month(-1)
	if n := len(w.man.Segments); n > 0 {
		last = w.man.Segments[n-1].Month
	}
	var pending []*dataset.Segment
	for _, seg := range dataset.Partition(ds) {
		if seg.Month > last {
			pending = append(pending, seg)
		}
	}
	infos, err := writeSegments(w.dir, pending)
	if err != nil {
		return nil, err
	}
	w.man.Segments = append(w.man.Segments, infos...)

	w.man.Head = head.Header.Number
	w.man.TotalBlocks = ds.Chain.Len()
	vantages := ds.VantageList()
	// Rebuilt from scratch (not appended) so a retry after a transient
	// failure later in this call cannot leave duplicate entries behind.
	w.man.Observer = nil
	w.man.Vantages = nil
	if ds.Observer != nil {
		start, stop := ds.Observer.Window()
		w.man.Observer = &ObserverInfo{Start: start, Stop: stop}
		for _, v := range vantages {
			w.man.Vantages = append(w.man.Vantages, VantageInfo{Node: v.Node(), MissRate: v.MissRate()})
		}
	}
	// Drift check: everything the dataset holds must be inside some
	// segment. A record whose month was already rotated but which entered
	// the dataset afterwards would be in neither the rotated file nor a
	// pending segment — refuse rather than archive a silently thinner
	// world. Observation logs are checked per vantage.
	var blocks, fb int
	obsV := make([]int, len(vantages))
	for _, si := range w.man.Segments {
		blocks += si.Blocks.Count
		fb += si.Flashbots.Count
		if len(obsV) > 0 {
			obsV[0] += si.Observed.Count
		}
		for i, fi := range si.ObservedV {
			if i+1 < len(obsV) {
				obsV[i+1] += fi.Count
			}
		}
	}
	if blocks != w.man.TotalBlocks {
		return nil, fmt.Errorf("archive: segments hold %d blocks, dataset has %d (rotated months drifted from the chain)",
			blocks, w.man.TotalBlocks)
	}
	if fb != len(ds.FBBlocks) {
		return nil, fmt.Errorf("archive: segments hold %d Flashbots records, dataset has %d (records arrived after their month rotated)",
			fb, len(ds.FBBlocks))
	}
	for i, v := range vantages {
		if obsV[i] != v.Count() {
			return nil, fmt.Errorf("archive: segments hold %d observation records for vantage %d, dataset has %d (records arrived after their month rotated)",
				obsV[i], i, v.Count())
		}
	}
	if w.man.Prices, err = writePrices(w.dir, ds.Prices); err != nil {
		return nil, err
	}

	mf, err := os.Create(filepath.Join(w.dir, ManifestName))
	if err != nil {
		return nil, err
	}
	enc := json.NewEncoder(mf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(w.man); err != nil {
		_ = mf.Close() // encode error wins; the manifest is junk either way
		return nil, fmt.Errorf("archive: manifest: %w", err)
	}
	if err := mf.Close(); err != nil {
		return nil, err
	}
	w.done = true
	return w.man, nil
}
