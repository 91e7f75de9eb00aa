// Package stream is the streaming block-follower: it consumes the world
// one block at a time — as the simulator produces it, or replayed from an
// archive — and keeps every measurement layer incrementally up to date,
// so a full report is available at any height without re-scanning
// history.
//
// The follower is built entirely on the incremental seams of the
// measurement core (detect.Scanner, profit.Tracker, privinfer.Feed,
// measure.Accumulator), the same seams the batch pipeline runs on. That
// shared seam is what makes the equivalence guarantee hold: after feeding
// blocks [start, n], Report() is byte-identical to the batch
// mevscope.AnalyzeDataset over the same world truncated at n — proved by
// test at month boundaries, at mid-month heights and at the end of the
// study. `mevscope serve -live` serves Report() directly as its snapshot.
//
//	f := stream.ForSim(s, 0)
//	for s.Chain.NextNumber() <= end {
//	    s.Step()
//	    f.Sync()            // feed the block(s) just produced
//	}
//	report := f.Report()    // == the batch pipeline's report
package stream

import (
	"fmt"
	"math"
	"sort"

	"mevscope/internal/chain"
	"mevscope/internal/core/detect"
	"mevscope/internal/core/measure"
	"mevscope/internal/core/privinfer"
	"mevscope/internal/core/profit"
	"mevscope/internal/dataset"
	"mevscope/internal/flashbots"
	obspkg "mevscope/internal/obs"
	"mevscope/internal/p2p"
	"mevscope/internal/parallel"
	"mevscope/internal/prices"
	"mevscope/internal/sim"
	"mevscope/internal/types"
)

// FBLookup resolves a block height to its Flashbots public-API record,
// reporting false for non-Flashbots blocks. Live runs wire it to
// Relay.BlockByNumber; archive replays wire it to the restored record
// list.
type FBLookup func(number uint64) (flashbots.BlockRecord, bool)

// Follower consumes blocks in ascending height order and maintains the
// full measurement state incrementally.
type Follower struct {
	// OnMonthEnd, when set, fires after the last block of each completed
	// study month — the natural checkpoint for live reporting, archive
	// segment rotation or progress display. The follower's state at that
	// moment covers exactly the completed months.
	OnMonthEnd func(m types.Month, f *Follower)

	chain    *chain.Chain
	weth     types.Address
	obs      *p2p.Observer
	vantages []*p2p.Observer
	prices   *prices.Series
	fbByNum  FBLookup
	workers  int

	scanner *detect.Scanner
	tracker *profit.Tracker
	inf     *privinfer.Inferrer
	acc     *measure.Accumulator
	fbset   map[types.Hash]flashbots.BundleType

	next uint64 // height the next fed block must carry
	fed  uint64 // blocks consumed so far

	span *obspkg.Span
}

// SetSpan attaches a tracing parent (internal/obs): each month rotation
// records a "stream:rotate" span and each Report snapshot a
// "stream:snapshot" span under it. A nil span — the default — disables
// recording at zero cost.
func (f *Follower) SetSpan(sp *obspkg.Span) { f.span = sp }

// New creates a follower over a (possibly still empty) chain. obs may be
// nil when no pending-transaction capture exists; fbByNum may be nil when
// the world has no Flashbots relay. workers sizes the snapshot worker
// pool exactly like mevscope.AnalyzeWith (< 1 selects runtime.NumCPU()).
func New(c *chain.Chain, weth types.Address, pr *prices.Series, obs *p2p.Observer, fbByNum FBLookup, workers int) *Follower {
	fbset := make(map[types.Hash]flashbots.BundleType)
	f := &Follower{
		chain:   c,
		weth:    weth,
		obs:     obs,
		prices:  pr,
		fbByNum: fbByNum,
		workers: parallel.Workers(workers),
		scanner: detect.NewScanner(weth),
		tracker: profit.NewTracker(profit.New(c, pr, weth, fbset)),
		acc:     measure.NewAccumulator(c.Timeline, weth),
		fbset:   fbset,
		next:    c.Timeline.StartBlock,
	}
	if obs != nil {
		f.vantages = []*p2p.Observer{obs}
	}
	return f
}

// SetVantages registers the full observation-network vantage list (the
// primary observer plus any additional vantages) so month rotation and
// snapshots carry every per-vantage log. ForSim wires it automatically.
func (f *Follower) SetVantages(vs []*p2p.Observer) { f.vantages = vs }

// ForSim wires a follower to a live simulation: its chain, price series,
// observation vantages and relay. Call Sync after each sim.Step (or
// after any number of steps) to catch up.
func ForSim(s *sim.Sim, workers int) *Follower {
	f := New(s.Chain, s.World.WETH, s.Prices, s.Net.Observer(), s.Relay.BlockByNumber, workers)
	f.SetVantages(s.Net.Vantages())
	return f
}

// Next returns the height the next fed block must carry.
func (f *Follower) Next() uint64 { return f.next }

// Blocks returns the number of blocks consumed so far.
func (f *Follower) Blocks() uint64 { return f.fed }

// Feed consumes one block. The block must already be appended to the
// follower's chain (profit resolution reads receipts through it) and
// must carry the next expected height. fbRec is the block's Flashbots
// public-API record, nil for non-Flashbots blocks.
func (f *Follower) Feed(b *types.Block, fbRec *flashbots.BlockRecord) error {
	if b.Header.Number != f.next {
		return fmt.Errorf("stream: fed block %d, want %d", b.Header.Number, f.next)
	}
	// Height and hash, not transaction membership: an empty block carries
	// no transaction to look up.
	if on, err := f.chain.ByNumber(b.Header.Number); err != nil || on.Hash() != b.Hash() {
		return fmt.Errorf("stream: block %d is not on the follower's chain", b.Header.Number)
	}
	// Flashbots membership first: profit resolution and inference both
	// read the transaction→bundle set.
	if fbRec != nil {
		for _, tx := range fbRec.Txs {
			f.fbset[tx.Hash] = tx.BundleType
		}
	}
	f.scanner.Feed(b)
	f.tracker.Sync(f.scanner.Result())
	f.acc.FeedBlock(b, fbRec)
	f.syncInferrer()
	f.next = b.Header.Number + 1
	f.fed++

	tl := f.chain.Timeline
	m := tl.MonthOfBlock(b.Header.Number)
	if b.Header.Number != tl.EndBlock() && tl.MonthOfBlock(b.Header.Number+1) == m {
		return nil
	}
	// The month's last block: every detection and profit record of the
	// month exists, so its summary is final.
	f.acc.SealMonth(m, f.tracker.Records())
	if f.OnMonthEnd != nil {
		rsp := f.span.Child(obspkg.StageRotate)
		rsp.SetLabel(m.Label())
		f.OnMonthEnd(m, f)
		rsp.End()
	}
	return nil
}

// syncInferrer opens the §6 inference once the observer goes live and
// feeds it the detections accumulated so far. The analysis window starts
// at the paper's fixed month; the end is unbounded because the follower's
// head only grows (batch runs bound it by the final head, which every
// detection is under — the verdicts agree either way).
func (f *Follower) syncInferrer() {
	if f.inf == nil {
		if f.obs == nil {
			return
		}
		if start, _ := f.obs.Window(); start == 0 && f.obs.Count() == 0 {
			return
		}
		winStart := f.chain.Timeline.FirstBlockOfMonth(types.PrivateWindowStartMonth)
		f.inf = privinfer.New(f.chain, f.obs, f.fbset, winStart, ^uint64(0))
		f.inf.Workers = f.workers
	}
	f.inf.Feed(f.scanner.Result())
}

// Sync feeds every chain block at or above the follower's cursor,
// resolving Flashbots records through the configured lookup. It returns
// the number of blocks consumed. Drive it after each simulation step —
// or once after many — the resulting state is identical.
func (f *Follower) Sync() (int, error) {
	head := f.chain.Head()
	if head == nil {
		return 0, nil
	}
	n := 0
	for f.next <= head.Header.Number {
		b, err := f.chain.ByNumber(f.next)
		if err != nil {
			return n, fmt.Errorf("stream: sync at %d: %w", f.next, err)
		}
		var fbRec *flashbots.BlockRecord
		if f.fbByNum != nil {
			if rec, ok := f.fbByNum(b.Header.Number); ok {
				fbRec = &rec
			}
		}
		if err := f.Feed(b, fbRec); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// Detected returns the live detector sweep over the fed range.
func (f *Follower) Detected() *detect.Result { return f.scanner.Result() }

// Profits returns the resolved profit records so far, in batch order.
func (f *Follower) Profits() []profit.Record { return f.tracker.Records() }

// Inferrer returns the live §6 inference, nil before the observation
// window opens.
func (f *Follower) Inferrer() *privinfer.Inferrer { return f.inf }

// MonthSegment extracts one completed month's partition of the fed
// world: its blocks, Flashbots API records and the pending transactions
// first observed during it — exactly what dataset.Partition would
// produce for that month over the final dataset. Called from OnMonthEnd
// it is the live feed of archive.StreamWriter: every record of month m
// exists by the time m's last block is fed (a transaction's first-seen
// block cannot precede its broadcast), so `mevscope archive -live` can
// rotate the month to disk immediately and the result is file-identical
// to archiving everything at the end.
func (f *Follower) MonthSegment(m types.Month) *dataset.Segment {
	tl := f.chain.Timeline
	seg := &dataset.Segment{Month: m, Blocks: f.chain.BlocksInMonth(m)}
	// Every record log is in ascending block order (records append as
	// blocks are fed / transactions are first seen), so the month's span
	// is a binary-searched slice, not a scan of the whole run — rotation
	// cost stays proportional to the month, not to the history.
	fb := f.acc.FBBlocks()
	lo := sort.Search(len(fb), func(i int) bool { return tl.MonthOfBlock(fb[i].BlockNumber) >= m })
	hi := sort.Search(len(fb), func(i int) bool { return tl.MonthOfBlock(fb[i].BlockNumber) > m })
	seg.FBBlocks = append(seg.FBBlocks, fb[lo:hi]...)
	first, last := monthBlocks(tl, m)
	monthSlice := func(v *p2p.Observer) []p2p.ObservedTx { return v.RecordsBetween(first, last) }
	if len(f.vantages) > 0 {
		seg.Observed = monthSlice(f.vantages[0])
		seg.ObservedV = make([][]p2p.ObservedTx, len(f.vantages)-1)
		for i, v := range f.vantages[1:] {
			seg.ObservedV[i] = monthSlice(v)
		}
	} else if f.obs != nil {
		seg.Observed = monthSlice(f.obs)
	}
	return seg
}

// monthBlocks is the block range tl.MonthOfBlock maps to month m,
// clamping included: blocks below the timeline's start belong to its
// first month and blocks past the study's end to its last.
func monthBlocks(tl types.Timeline, m types.Month) (lo, hi uint64) {
	if m < tl.FirstMonth || m >= types.StudyMonths {
		return 1, 0 // a month MonthOfBlock never yields: empty
	}
	if m > tl.FirstMonth {
		lo = tl.FirstBlockOfMonth(m)
	}
	hi = math.MaxUint64
	if m+1 < types.StudyMonths {
		hi = tl.FirstBlockOfMonth(m+1) - 1
	}
	return lo, hi
}

// Timeline returns the follower's study timeline.
func (f *Follower) Timeline() types.Timeline { return f.chain.Timeline }

// Dataset returns the collected-measurement view of the fed world — the
// input `mevscope archive` persists. It shares the follower's live
// structures.
func (f *Follower) Dataset() *dataset.Dataset {
	ds := &dataset.Dataset{
		Chain:    f.chain,
		FBBlocks: f.acc.FBBlocks(),
		FBSet:    f.fbset,
		Prices:   f.prices,
		WETH:     f.weth,
	}
	if f.inf != nil {
		ds.Observer = f.obs
		ds.Vantages = f.vantages
	}
	return ds
}

// Report snapshots the full report for the fed range. After feeding
// blocks [start, n] it is byte-identical to the batch pipeline run over
// the same world truncated at n. Every completed month's summary was
// derived when its last block was fed, so a snapshot derives only the
// open month's before the final builder fan-out runs.
func (f *Follower) Report() *measure.Report {
	sp := f.span.Child(obspkg.StageSnapshot)
	defer sp.End()
	in := measure.Inputs{
		Chain:   f.chain,
		FBSet:   f.fbset,
		Detect:  f.scanner.Result(),
		Profits: f.tracker.Records(),
		WETH:    f.weth,
		Workers: f.workers,
		Span:    sp,
	}
	if f.inf != nil {
		in.Vantages = f.vantages
	}
	return f.acc.Report(in, f.inf)
}
