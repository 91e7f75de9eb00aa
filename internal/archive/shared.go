package archive

import (
	"fmt"

	"mevscope/internal/dataset"
	"mevscope/internal/obs"
	"mevscope/internal/p2p"
	"mevscope/internal/parallel"
	"mevscope/internal/prices"
	"mevscope/internal/types"
)

// Shared is what the single-month reads of one build have in common: the
// manifest, the price series, and the observation network through the
// build's last month together with its per-month first-occurrence
// coverage table (p2p.Coverage). RestoreShared reads it once; ReadMonth
// then decodes only each month's own chunks. A month-by-month build over
// ReadRange(dir, m, m) would instead re-parse the manifest and prices and
// re-gather every observation log up to m for every month m — quadratic
// in the months a build covers.
//
// A Shared is immutable and safe for concurrent ReadMonth calls. It is
// meant to live for one build: the network pins every observation log
// through its last month in memory.
type Shared struct {
	dir     string
	man     *Manifest
	through types.Month
	prices  *prices.Series
	// vantages is the restored observation network, nil when the
	// observation window had not opened by the end of month through.
	vantages []*p2p.Observer
	coverage *p2p.Coverage
}

// RestoreShared reads the state shared by the single-month reads of
// months up to through (inclusive) of the archive at dir, whose manifest
// the caller has already loaded: the price series and every vantage's
// observation log of every segment up to through. It checks the prefix
// coverage invariant on the way — every record sits in the segment of
// its first-seen month, as dataset.Partition files it — because the
// coverage table's prefix sums are exact for each month read against it
// only under that invariant. opt sizes the log-read pool, routes chunk
// reads through its cache and records an "archive:restore" span labeled
// "shared"; Columns must be nil.
func RestoreShared(dir string, man *Manifest, through types.Month, opt ReadOptions) (*Shared, error) {
	if opt.Columns != nil {
		return nil, fmt.Errorf("archive: shared state restores whole months; ReadOptions.Columns must be nil")
	}
	sp := opt.Span.Child(obs.StageRestore)
	sp.SetLabel("shared")
	defer sp.End()
	sh := &Shared{dir: dir, man: man, through: through}
	var err error
	if sh.prices, err = readPrices(dir, man); err != nil {
		return nil, err
	}
	var segs []SegmentInfo
	for _, si := range man.Segments {
		if si.Month <= through {
			segs = append(segs, si)
		}
	}
	if len(segs) == 0 || man.Observer == nil || man.Observer.Start > segs[len(segs)-1].LastBlock {
		return sh, nil
	}
	logs, err := readObservationLogs(dir, segs, opt, sp)
	if err != nil {
		return nil, err
	}
	gtl := man.Timeline.Unanchored()
	vinfos := vantageInfos(man)
	observedV := make([][]p2p.ObservedTx, len(vinfos))
	for i, si := range segs {
		for v, recs := range logs[i] {
			if v >= len(observedV) {
				break
			}
			for _, rec := range recs {
				if m := gtl.MonthOfBlock(rec.FirstSeenBlock); m != si.Month {
					return nil, fmt.Errorf("archive: segment %s holds an observation first seen in %s (block %d)",
						si.Label, m.Label(), rec.FirstSeenBlock)
				}
			}
			observedV[v] = append(observedV[v], recs...)
		}
	}
	for v, vi := range vinfos {
		sh.vantages = append(sh.vantages,
			p2p.RestoreVantage(vi.Node, observedV[v], man.Observer.Start, man.Observer.Stop))
	}
	sh.coverage = p2p.NewCoverage(gtl, sh.vantages...)
	return sh, nil
}

// blockColumns selects every column but the observation logs, which a
// month read takes from the shared state instead.
var blockColumns = columnSet{ColHeaders: true, ColTxs: true, ColReceipts: true, ColLogs: true, ColFlashbots: true}

// ReadMonth restores month m — at most the shared state's last month —
// as a single-month dataset. It decodes only the month's own block,
// transaction, receipt, log and Flashbots chunks and attaches the shared
// price series, observation network and coverage table. The network
// runs past m, but analysis of the result is identical to analysis of
// ReadRange(dir, m, m): under the month stability and prefix coverage
// invariants (see measure.Partial) the extra logs change no verdict and
// no coverage count. opt.Columns must be nil; the rest of opt applies as
// in ReadRangeWith.
func (sh *Shared) ReadMonth(m types.Month, opt ReadOptions) (*dataset.Dataset, error) {
	if opt.Columns != nil {
		return nil, fmt.Errorf("archive: month reads restore whole months; ReadOptions.Columns must be nil")
	}
	if m > sh.through {
		return nil, fmt.Errorf("archive: month %s is past the shared state's last month %s", m.Label(), sh.through.Label())
	}
	var si *SegmentInfo
	for i := range sh.man.Segments {
		if sh.man.Segments[i].Month == m {
			si = &sh.man.Segments[i]
			break
		}
	}
	if si == nil {
		return nil, fmt.Errorf("archive: no segment for month %s", m.Label())
	}
	rsp := opt.Span.Child(obs.StageRestore)
	rsp.SetLabel(si.Label)
	rsp.SetBlocks(si.Blocks.Count)
	rsp.SetBytes(segBytesFor(*si, blockColumns))
	defer rsp.End()
	seg, err := readSegment(sh.dir, *si, blockColumns, opt, rsp)
	if err != nil {
		return nil, err
	}
	tl := sh.man.Timeline
	tl.StartBlock = tl.FirstBlockOfMonth(m)
	tl.FirstMonth = m
	ds, err := dataset.Assemble(tl, sh.man.WETH, []*dataset.Segment{seg})
	if err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	if ds.Chain.Len() != si.Blocks.Count {
		return nil, fmt.Errorf("archive: restored %d blocks, manifest says %d", ds.Chain.Len(), si.Blocks.Count)
	}
	if head := ds.Chain.Head(); head == nil || head.Header.Number != si.LastBlock {
		return nil, fmt.Errorf("archive: restored head does not match manifest head %d", si.LastBlock)
	}
	if sh.vantages != nil && sh.man.Observer.Start <= si.LastBlock {
		ds.Vantages = sh.vantages
		ds.Observer = sh.vantages[0]
		ds.Coverage = sh.coverage
	}
	ds.Prices = sh.prices
	return ds, nil
}

// vantageInfos is the manifest's vantage list; an archive without one
// implies one vantage at node 0.
func vantageInfos(man *Manifest) []VantageInfo {
	if len(man.Vantages) == 0 {
		return []VantageInfo{{Node: 0}}
	}
	return man.Vantages
}

// readObservationLogs reads the observation logs of each segment, in
// segment order and in parallel: out[i][v] is vantage v's log for
// segs[i]. Only the observed column chunks are read, through the cache
// when opt has one.
func readObservationLogs(dir string, segs []SegmentInfo, opt ReadOptions, rsp *obs.Span) ([][][]p2p.ObservedTx, error) {
	type result struct {
		logs [][]p2p.ObservedTx
		err  error
	}
	res := parallel.MapSpan(rsp, len(segs), opt.Workers, func(i int) result {
		primary, extra, err := readObserved(dir, segs[i], opt, rsp)
		return result{logs: append([][]p2p.ObservedTx{primary}, extra...), err: err}
	})
	out := make([][][]p2p.ObservedTx, len(segs))
	for i, r := range res {
		if r.err != nil {
			return nil, r.err
		}
		out[i] = r.logs
	}
	return out, nil
}

// segmentLogs lists a decoded segment's per-vantage observation logs,
// primary first.
func segmentLogs(seg *dataset.Segment) [][]p2p.ObservedTx {
	return append([][]p2p.ObservedTx{seg.Observed}, seg.ObservedV...)
}
