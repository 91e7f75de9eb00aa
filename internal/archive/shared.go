package archive

import (
	"fmt"
	"strings"

	"mevscope/internal/dataset"
	"mevscope/internal/obs"
	"mevscope/internal/p2p"
	"mevscope/internal/parallel"
	"mevscope/internal/prices"
	"mevscope/internal/types"
)

// Shared is what the month reads of one build have in common: the
// manifest, the price series, and the observation network through the
// build's last month together with its per-month first-occurrence
// coverage table (p2p.Coverage). RestoreShared reads it once; ReadMonth
// then decodes only each month's own chunks. ReadRange is the same
// reader over a range: one restore through the slice end, then the
// slice's months. A month-by-month build over ReadRange(dir, m, m)
// would instead re-parse the manifest and prices and re-gather every
// observation log up to m for every month m — quadratic in the months a
// build covers.
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

// RestoreShared reads the state shared by the month reads of months up
// to through (inclusive) of the archive at dir, whose manifest the caller
// has already loaded: the price series and every vantage's observation
// log of every segment up to through, the observation chunks read only
// when the observation window has opened by then. Before reading them it
// checks the prefix coverage invariant across the whole archive — every
// record sits in the segment of its first-seen month, as
// dataset.Partition files it — because a network through any month, and
// the prefix sums of its coverage table, are exact only under that
// invariant; a misfiled archive is refused with a "first seen in" error,
// by ReadRange too. opt sizes the log-read pool and records an
// "archive:restore" span labeled "shared".
func RestoreShared(dir string, man *Manifest, through types.Month, opt ReadOptions) (*Shared, error) {
	sp := opt.Span.Child(obs.StageRestore)
	sp.SetLabel("shared")
	defer sp.End()
	return restoreShared(dir, man, through, opt.Workers, sp)
}

// restoreShared is RestoreShared on a pool of workers, recording under sp.
func restoreShared(dir string, man *Manifest, through types.Month, workers int, sp *obs.Span) (*Shared, error) {
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
	// Check the filing of every segment, not just those read: a record
	// filed past through would be missing from the network. The zone maps
	// bound each chunk's first-seen blocks (0..0 when it is empty), and
	// every decode verifies them against its records.
	gtl := man.Timeline.Unanchored()
	for _, si := range man.Segments {
		for _, ci := range si.Columns {
			if !strings.HasPrefix(ci.Name, ColObserved) || ci.MaxBlock == 0 {
				continue
			}
			for _, b := range []uint64{ci.MinBlock, ci.MaxBlock} {
				if m := gtl.MonthOfBlock(b); m != si.Month {
					return nil, fmt.Errorf("archive: segment %s holds an observation first seen in %s (block %d)",
						si.Label, m.Label(), b)
				}
			}
		}
	}
	logs, err := readObservationLogs(dir, segs, workers, sp)
	if err != nil {
		return nil, err
	}
	vinfos := man.Vantages
	if len(vinfos) == 0 {
		vinfos = []VantageInfo{{Node: 0}} // implied by an archive without a list
	}
	// Every cold build waits on this step, so the vantages restore in
	// parallel, each from one presized concatenation of its logs.
	sh.vantages = parallel.MapSpan(sp, len(vinfos), workers, func(v int) *p2p.Observer {
		n := 0
		for i := range segs {
			if v < len(logs[i]) {
				n += len(logs[i][v])
			}
		}
		recs := make([]p2p.ObservedTx, 0, n)
		for i := range segs {
			if v < len(logs[i]) {
				recs = append(recs, logs[i][v]...)
			}
		}
		return p2p.RestoreVantage(vinfos[v].Node, recs, man.Observer.Start, man.Observer.Stop)
	})
	sh.coverage = p2p.NewCoverage(gtl, sh.vantages...)
	return sh, nil
}

// ReadMonth restores month m — at most the shared state's last month —
// as a single-month dataset. It decodes only the month's own block,
// transaction, receipt, log and Flashbots chunks and attaches the shared
// price series, observation network and coverage table. The network
// runs past m, but analysis of the result is identical to analysis of
// ReadRange(dir, m, m): under the month stability and prefix coverage
// invariants (see measure.Partial) the extra logs change no verdict and
// no coverage count. opt sizes the decode pool and records an
// "archive:restore" span labeled with the month.
func (sh *Shared) ReadMonth(m types.Month, opt ReadOptions) (*dataset.Dataset, error) {
	if m > sh.through {
		return nil, fmt.Errorf("archive: month %s is past the shared state's last month %s", m.Label(), sh.through.Label())
	}
	for _, si := range sh.man.Segments {
		if si.Month == m {
			rsp := opt.Span.Child(obs.StageRestore)
			rsp.SetLabel(si.Label)
			rsp.SetBlocks(si.Blocks.Count)
			rsp.SetBytes(blockBytes(si))
			defer rsp.End()
			return sh.readMonths([]SegmentInfo{si}, opt.Workers, rsp)
		}
	}
	return nil, fmt.Errorf("archive: no segment for month %s", m.Label())
}

// readMonths is the one month reader behind ReadMonth and ReadRange. It
// decodes the block chunks of segs — ascending months, none past
// sh.through — in parallel on a pool of workers through readSegment,
// assembles them in month order into one dataset on a timeline anchored
// at the first, checks it against the manifest's block counts and last
// head, and attaches the shared price series and, when the observation
// window had opened by the last month, the shared network and coverage
// table.
func (sh *Shared) readMonths(segs []SegmentInfo, workers int, rsp *obs.Span) (*dataset.Dataset, error) {
	type result struct {
		seg *dataset.Segment
		err error
	}
	decoded := parallel.MapSpan(rsp, len(segs), workers, func(i int) result {
		seg, err := readSegment(sh.dir, segs[i], rsp)
		return result{seg, err}
	})
	parts := make([]*dataset.Segment, len(decoded))
	blocks := 0
	for i, r := range decoded {
		if r.err != nil {
			return nil, r.err
		}
		parts[i] = r.seg
		blocks += segs[i].Blocks.Count
	}
	tl := sh.man.Timeline
	tl.StartBlock = tl.FirstBlockOfMonth(segs[0].Month)
	tl.FirstMonth = segs[0].Month
	ds, err := dataset.Assemble(tl, sh.man.WETH, parts)
	if err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	if ds.Chain.Len() != blocks {
		return nil, fmt.Errorf("archive: restored %d blocks, manifest says %d", ds.Chain.Len(), blocks)
	}
	last := segs[len(segs)-1].LastBlock
	if head := ds.Chain.Head(); head == nil || head.Header.Number != last {
		return nil, fmt.Errorf("archive: restored head does not match manifest head %d", last)
	}
	if sh.vantages != nil && sh.man.Observer.Start <= last {
		ds.Vantages = sh.vantages
		ds.Observer = sh.vantages[0]
		ds.Coverage = sh.coverage
	}
	ds.Prices = sh.prices
	return ds, nil
}

// readObservationLogs reads every vantage's observation chunk of each
// segment, in segment order and in parallel on a pool of workers:
// out[i][v] is vantage v's log for segs[i].
func readObservationLogs(dir string, segs []SegmentInfo, workers int, rsp *obs.Span) ([][][]p2p.ObservedTx, error) {
	type result struct {
		logs [][]p2p.ObservedTx
		err  error
	}
	res := parallel.MapSpan(rsp, len(segs), workers, func(i int) result {
		cl := &chunkLoader{dir: dir, si: segs[i], rsp: rsp}
		defer cl.end()
		var r result
		for v := 0; v <= len(segs[i].ObservedV); v++ {
			name := ColObserved
			if v > 0 {
				name = fmt.Sprintf("%s_v%d", ColObserved, v)
			}
			recs, err := decode(cl, name, decodeObservedCol)
			if err != nil {
				return result{err: err}
			}
			r.logs = append(r.logs, recs)
		}
		return r
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
