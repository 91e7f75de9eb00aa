// Package dataset defines the collected-measurement view of one simulated
// world: the artifacts a real study would have on disk — the archive
// node's chain, the observer's pending-transaction capture, the Flashbots
// public blocks API and the historical price series — without the
// simulator that produced them.
//
// The measurement pipeline (mevscope.AnalyzeDataset, internal/stream)
// consumes only this view, which is what makes a world simulate-once,
// analyze-many: internal/archive persists a Dataset to disk and restores
// it bit-compatibly — every block as the simulator sealed it, down to an
// empty block's nil transaction and receipt lists — so `mevscope analyze
// -from <dir>` reproduces the original run's report without
// re-simulating. A restored Dataset is always complete: archive reads
// decode whole months, never a column subset.
package dataset

import (
	"fmt"

	"mevscope/internal/chain"
	"mevscope/internal/flashbots"
	"mevscope/internal/p2p"
	"mevscope/internal/prices"
	"mevscope/internal/sim"
	"mevscope/internal/types"
)

// Dataset is everything the measurement stage reads.
type Dataset struct {
	// Chain is the full block/receipt history (the archive-node view).
	Chain *chain.Chain
	// FBBlocks is the public Flashbots blocks API, ascending by height.
	FBBlocks []flashbots.BlockRecord
	// FBSet maps every transaction mined inside a bundle to its bundle
	// type — derived from FBBlocks, carried precomputed because every
	// pipeline stage needs it.
	FBSet map[types.Hash]flashbots.BundleType
	// Observer is the primary pending-transaction capture (the paper's
	// single vantage); nil when the run ended before the observation
	// window opened.
	Observer *p2p.Observer
	// Vantages are the per-vantage observation logs of the whole
	// observation network, in configuration order; Vantages[0] is
	// Observer when both are set. Empty for single-vantage datasets
	// restored from legacy archives (Observer then stands alone).
	Vantages []*p2p.Observer
	// Coverage, when set, is the per-month first-occurrence table of
	// Vantages (p2p.Coverage), restored with them by the archive reader
	// (archive.Shared) and shared by every dataset read against that
	// restore. Vantages may then run past the chain's last month (a
	// month read of a longer build); analysis reads coverage as the
	// table's prefix through that month. Nil for datasets not read from
	// an archive, which analysis tabulates from Vantages.
	Coverage *p2p.Coverage
	// View names the observation view the §6 inference classifies
	// against: "" or "vantage:0" for the primary vantage, "vantage:N",
	// "union", or "quorum:K". See ResolveView.
	View string
	// Prices is the CoinGecko-substitute token→ETH series.
	Prices *prices.Series
	// WETH anchors the detectors' buy/sell direction.
	WETH types.Address
}

// FromSim extracts the measurement dataset from a completed (or still
// running) simulation. The returned dataset shares the simulation's live
// structures; it is a view, not a copy.
func FromSim(s *sim.Sim) *Dataset {
	ds := &Dataset{
		Chain:    s.Chain,
		FBBlocks: s.Relay.Blocks(),
		FBSet:    s.Relay.FlashbotsTxSet(),
		Prices:   s.Prices,
		WETH:     s.World.WETH,
	}
	obs := s.Net.Observer()
	if start, _ := obs.Window(); start > 0 || obs.Count() > 0 {
		ds.Observer = obs
		ds.Vantages = s.Net.Vantages()
	}
	return ds
}

// VantageList resolves the dataset's vantage set: the explicit Vantages
// when present, else the lone Observer, else nil.
func (ds *Dataset) VantageList() []*p2p.Observer {
	if len(ds.Vantages) > 0 {
		return ds.Vantages
	}
	if ds.Observer != nil {
		return []*p2p.Observer{ds.Observer}
	}
	return nil
}

// FBSetOf rebuilds the transaction→bundle-type set from block records —
// what Relay.FlashbotsTxSet computes relay-side, reproduced here for
// datasets restored from disk.
func FBSetOf(records []flashbots.BlockRecord) map[types.Hash]flashbots.BundleType {
	out := make(map[types.Hash]flashbots.BundleType)
	for _, rec := range records {
		for _, tx := range rec.Txs {
			out[tx.Hash] = tx.BundleType
		}
	}
	return out
}

// Segment is one study month's partition of a dataset: the blocks mined
// in that month, the Flashbots API records for them, and the pending
// transactions first observed during it. It is the unit the archive
// persists, the streaming follower rotates to disk, and the query layer
// caches — a month materializes at most once per process, however many
// overlapping ranges ask for it.
//
// A Segment is immutable once built (blocks are sealed, hashes cached),
// so one decoded segment is safely shared across concurrent readers and
// assembled into any number of datasets.
type Segment struct {
	Month    types.Month
	Blocks   []*types.Block
	FBBlocks []flashbots.BlockRecord
	// Observed is the primary vantage's capture for the month.
	Observed []p2p.ObservedTx
	// ObservedV holds the additional vantages' captures (ObservedV[i] is
	// vantage i+1), one log per vantage like mempool-dumpster's
	// per-source files. Every segment of one dataset has the same length
	// here, so per-vantage logs re-concatenate consistently.
	ObservedV [][]p2p.ObservedTx
}

// Partition splits a dataset into per-month segments in ascending month
// order, skipping months with no blocks. Ordering within a segment is the
// dataset's own (blocks by height, records in capture order), so
// concatenating the segments back reproduces the original sequences.
func Partition(ds *Dataset) []*Segment {
	tl := ds.Chain.Timeline
	vs := ds.VantageList()
	extra := 0
	if len(vs) > 1 {
		extra = len(vs) - 1
	}
	byMonth := map[types.Month]*Segment{}
	get := func(m types.Month) *Segment {
		seg := byMonth[m]
		if seg == nil {
			seg = &Segment{Month: m, ObservedV: make([][]p2p.ObservedTx, extra)}
			byMonth[m] = seg
		}
		return seg
	}
	for _, rec := range ds.FBBlocks {
		seg := get(tl.MonthOfBlock(rec.BlockNumber))
		seg.FBBlocks = append(seg.FBBlocks, rec)
	}
	for vi, v := range vs {
		for _, rec := range v.Records() {
			seg := get(tl.MonthOfBlock(rec.FirstSeenBlock))
			if vi == 0 {
				seg.Observed = append(seg.Observed, rec)
			} else {
				seg.ObservedV[vi-1] = append(seg.ObservedV[vi-1], rec)
			}
		}
	}
	var out []*Segment
	for m := types.Month(0); m < types.StudyMonths; m++ {
		blocks := ds.Chain.BlocksInMonth(m)
		if len(blocks) == 0 {
			continue
		}
		seg := get(m)
		seg.Blocks = blocks
		out = append(out, seg)
	}
	return out
}

// Assemble rebuilds a dataset from contiguous month segments. tl must be
// the archive's timeline re-anchored at the first segment's month (so
// block→month mapping stays aligned with the full archive); prices,
// observer and WETH stay with the caller, which knows where they live.
// The segments are only read, never retained mutable — assembling the
// same cached segments into many datasets is safe.
func Assemble(tl types.Timeline, weth types.Address, segs []*Segment) (*Dataset, error) {
	ds := &Dataset{Chain: chain.New(tl), WETH: weth}
	for _, seg := range segs {
		for _, b := range seg.Blocks {
			if err := ds.Chain.Append(b); err != nil {
				return nil, fmt.Errorf("dataset: segment %s: %w", seg.Month.Label(), err)
			}
		}
		ds.FBBlocks = append(ds.FBBlocks, seg.FBBlocks...)
	}
	ds.FBSet = FBSetOf(ds.FBBlocks)
	return ds, nil
}
