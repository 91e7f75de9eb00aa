package measure

import (
	"bytes"
	"cmp"
	"slices"
	"sort"

	"mevscope/internal/core/privinfer"
	"mevscope/internal/core/profit"
	"mevscope/internal/flashbots"
	"mevscope/internal/obs"
	"mevscope/internal/parallel"
	"mevscope/internal/stats"
	"mevscope/internal/types"
)

// fig7Types names Figure 7's MEV types. The first three are indexed by
// profit.Kind; "other", last, covers Flashbots transactions no detector
// matched.
var fig7Types = [...]string{"sandwiches", "arbitrages", "liquidations", "other"}

// fig7Other is the index of Figure 7's "other" type.
const fig7Other = len(fig7Types) - 1

// bundleTypeSlots counts the bundle types BundleType.String names, plus
// one slot for every other value, which it names "unknown".
const bundleTypeSlots = int(flashbots.TypeMinerPayout) + 2

// bundleTypeSlot is the MonthSummary.BundlesByType index of t.
func bundleTypeSlot(t flashbots.BundleType) int { return min(int(t), bundleTypeSlots-1) }

// MonthSummary is what the report builders read of one study month's
// receipts and Flashbots records. A month's summary is derived once
// (derive), and a report over many months combines summaries instead of
// re-walking receipts and bundle transactions. Every field is a count, a
// sum, a maximum or a value list, so the summaries of several months
// combine exactly, and every array is fixed-size or a value list, so a
// partial's size accounting stays exact.
type MonthSummary struct {
	// Receipts, GasSum and GasMedian summarize every receipt's effective
	// gas price in gwei: the count, the sum in receipt order and the
	// median (Figure 6).
	Receipts  int     `json:"receipts"`
	GasSum    float64 `json:"gas_sum"`
	GasMedian float64 `json:"gas_median"`

	// FBRecords counts the month's Flashbots block records (Figure 3;
	// Figure 7 has a row for every month with one).
	FBRecords int `json:"fb_records"`
	// FBMiners tallies the month's Flashbots blocks per miner, sorted by
	// address (Figures 4 and 5, §4.4 concentration).
	FBMiners []MinerBlocks `json:"fb_miners,omitempty"`
	// FBTxs and FBSearchers count the month's Flashbots transactions and
	// their distinct submitting accounts per Figure 7 type (fig7Types).
	FBTxs       [len(fig7Types)]int `json:"fb_txs"`
	FBSearchers [len(fig7Types)]int `json:"fb_searchers"`

	// The §4.1 bundle statistics. BundlesPerBlock holds the bundle count
	// of each Flashbots block with a bundle, TxsPerBundle the transaction
	// count of each bundle, in block order and ascending bundle id within
	// a block. BundlesByType counts bundles per bundleTypeSlot.
	BundlesPerBlock []float64            `json:"bundles_per_block,omitempty"`
	TxsPerBundle    []float64            `json:"txs_per_bundle,omitempty"`
	SingleTxBundles int                  `json:"single_tx_bundles"`
	MaxBundleTxs    int                  `json:"max_bundle_txs"`
	BundlesByType   [bundleTypeSlots]int `json:"bundles_by_type"`
}

// MinerBlocks is one miner's Flashbots block count in a month.
type MinerBlocks struct {
	Miner  types.Address `json:"miner"`
	Blocks int           `json:"blocks"`
}

// monthAgg is the accumulator's state of one study month: its block
// count and per-block miners, which the header-level builders read, and
// its summary, accumulated in block order so floating-point reductions
// reproduce the batch pass exactly.
type monthAgg struct {
	// blocks is the number of blocks minted in the month.
	blocks int
	// miners holds the coinbase of each block, in height order (Figure 4
	// needs per-block membership checks against the month's Flashbots
	// miner set, which is only complete once the month ends).
	miners []types.Address
	// gas holds the receipt gas prices in gwei of a month not yet sealed,
	// for derive's median.
	gas []float64
	MonthSummary
}

// feed folds one block into the aggregate; withGas adds its receipts'
// gas prices.
func (agg *monthAgg) feed(b *types.Block, withGas bool) {
	agg.blocks++
	agg.miners = append(agg.miners, b.Header.Miner)
	if !withGas {
		return
	}
	for _, rcpt := range b.Receipts {
		g := float64(rcpt.EffectiveGasPrice) / float64(types.Gwei)
		agg.Receipts++
		agg.GasSum += g
		agg.gas = append(agg.gas, g)
	}
}

// derive computes month m's summary from what has been fed of it: the gas
// median, and the miner tallies, Figure 7 counts and bundle statistics
// of the records of fb in month m. A Flashbots profit record of profits
// in m labels its transactions with its MEV type; a record's
// transactions all sit in its block, so records of other months label
// none of m's. derive may run again as an open month grows: it
// recomputes everything but the gas count and sum, which feed keeps.
func (agg *monthAgg) derive(tl types.Timeline, m types.Month, fb []flashbots.BlockRecord, profits []profit.Record) {
	s := &agg.MonthSummary
	*s = MonthSummary{Receipts: s.Receipts, GasSum: s.GasSum}
	if len(agg.gas) > 0 {
		sort.Float64s(agg.gas)
		s.GasMedian = stats.Quantile(agg.gas, 0.5)
	}

	kinds := make(map[types.Hash]int)
	for i := range profits {
		r := &profits[i]
		if !r.ViaFlashbots || int(r.Kind) >= fig7Other || tl.MonthOfBlock(r.Block) != m {
			continue
		}
		for _, h := range r.Txs {
			kinds[h] = int(r.Kind)
		}
	}
	type searcher struct {
		kind int
		eoa  types.Address
	}
	seen := make(map[searcher]bool)
	var bundles []bundleTx
	var miners []types.Address
	for i := range fb {
		rec := &fb[i]
		if tl.MonthOfBlock(rec.BlockNumber) != m {
			continue
		}
		s.FBRecords++
		miners = append(miners, rec.Miner)
		for _, tx := range rec.Txs {
			k := fig7Other
			if kind, ok := kinds[tx.Hash]; ok {
				k = kind
			}
			s.FBTxs[k]++
			if !seen[searcher{k, tx.EOA}] {
				seen[searcher{k, tx.EOA}] = true
				s.FBSearchers[k]++
			}
		}
		bundles = s.addBundles(rec, bundles)
	}
	slices.SortFunc(miners, func(a, b types.Address) int { return bytes.Compare(a[:], b[:]) })
	for _, a := range miners {
		if n := len(s.FBMiners); n > 0 && s.FBMiners[n-1].Miner == a {
			s.FBMiners[n-1].Blocks++
		} else {
			s.FBMiners = append(s.FBMiners, MinerBlocks{a, 1})
		}
	}
}

// bundleTx is one Flashbots transaction's bundle membership.
type bundleTx struct {
	id  uint64
	typ flashbots.BundleType
}

// addBundles folds one Flashbots block record into the bundle statistics:
// its bundles in ascending id, each sized by its transactions and typed
// by the last of them. scratch is reused across calls and returned.
func (s *MonthSummary) addBundles(rec *flashbots.BlockRecord, scratch []bundleTx) []bundleTx {
	if len(rec.Txs) == 0 {
		return scratch
	}
	scratch = scratch[:0]
	for _, tx := range rec.Txs {
		scratch = append(scratch, bundleTx{tx.BundleID, tx.BundleType})
	}
	slices.SortStableFunc(scratch, func(a, b bundleTx) int { return cmp.Compare(a.id, b.id) })
	bundles := 0
	for i := 0; i < len(scratch); {
		j := i + 1
		for j < len(scratch) && scratch[j].id == scratch[i].id {
			j++
		}
		n := j - i
		bundles++
		s.TxsPerBundle = append(s.TxsPerBundle, float64(n))
		if n == 1 {
			s.SingleTxBundles++
		}
		s.MaxBundleTxs = max(s.MaxBundleTxs, n)
		s.BundlesByType[bundleTypeSlot(scratch[j-1].typ)]++
		i = j
	}
	s.BundlesPerBlock = append(s.BundlesPerBlock, float64(bundles))
	return scratch
}

// Accumulator maintains the chain-derived aggregates of the report
// incrementally: the streaming block-follower feeds it one block at a
// time and can snapshot a full Report at any height, while the batch
// Build constructs the same aggregates in one parallel pass over the
// finished chain. Both paths flow through the same builder code, so a
// snapshot after feeding blocks [start, n] is byte-identical to a batch
// Build over a chain truncated at n.
type Accumulator struct {
	tl       types.Timeline
	weth     types.Address
	months   [types.StudyMonths]monthAgg
	minerSet map[types.Address]bool
	fb       []flashbots.BlockRecord
	// sealed marks the months whose summary is final: every month of a
	// batch pass, and each streamed month once SealMonth has run.
	sealed [types.StudyMonths]bool
}

// NewAccumulator creates an empty accumulator over the timeline.
func NewAccumulator(tl types.Timeline, weth types.Address) *Accumulator {
	return &Accumulator{tl: tl, weth: weth, minerSet: make(map[types.Address]bool)}
}

// FeedBlock folds one block into the monthly aggregates. fbRec is the
// block's Flashbots public-API record, nil when the block carried no
// bundle. Blocks must be fed in ascending height order.
func (a *Accumulator) FeedBlock(b *types.Block, fbRec *flashbots.BlockRecord) {
	m := a.tl.MonthOfBlock(b.Header.Number)
	a.months[m].feed(b, true)
	a.minerSet[b.Header.Miner] = true
	if fbRec != nil {
		a.fb = append(a.fb, *fbRec)
	}
}

// SealMonth derives month m's summary for good once its last block has
// been fed, so later Reports combine it instead of deriving the month
// again; no block of m may be fed after it. profits are the records
// resolved so far; those of month m label its Flashbots transactions.
func (a *Accumulator) SealMonth(m types.Month, profits []profit.Record) {
	agg := &a.months[m]
	agg.derive(a.tl, m, a.fb, profits)
	agg.gas = nil
	a.sealed[m] = true
}

// FBBlocks returns the Flashbots block records fed so far, in height
// order — the live public-API dataset. Callers must not mutate it.
func (a *Accumulator) FBBlocks() []flashbots.BlockRecord { return a.fb }

// Report assembles the full report from the accumulated aggregates plus
// the detector/profit/inference inputs; the builders read the Flashbots
// records only through the month summaries, derived from the
// accumulator's own record list. Every fed month not yet sealed — a
// streamed run's open month — is derived from in.Profits first.
func (a *Accumulator) Report(in Inputs, inf *privinfer.Inferrer) *Report {
	for m := range a.months {
		if !a.sealed[m] && a.months[m].blocks > 0 {
			a.months[m].derive(a.tl, types.Month(m), a.fb, in.Profits)
		}
	}
	return buildWith(in, a, inf)
}

// accumulate builds the aggregates for a completed chain in one batch
// pass, fanning months across the worker pool. Each month is walked in
// block order, so per-month aggregates equal the streamed ones exactly.
// withGas skips the receipt sweep when the caller only needs block-level
// aggregates and Flashbots summaries.
func accumulate(in Inputs, withGas bool) *Accumulator {
	sp := in.Span.Child(obs.StageAggregate)
	defer sp.End()
	sp.SetBlocks(in.Chain.Len())
	tl := in.Chain.Timeline
	a := NewAccumulator(tl, in.WETH)
	aggs := parallel.MapSpan(sp, types.StudyMonths, in.Workers, func(mi int) monthAgg {
		var agg monthAgg
		for _, b := range in.Chain.BlocksInMonth(types.Month(mi)) {
			agg.feed(b, withGas)
		}
		agg.derive(tl, types.Month(mi), in.FBBlocks, in.Profits)
		agg.gas = nil
		return agg
	})
	for mi := range aggs {
		a.months[mi] = aggs[mi]
		a.sealed[mi] = true
		for _, m := range aggs[mi].miners {
			a.minerSet[m] = true
		}
	}
	return a
}

// figure3 computes the monthly Flashbots vs non-Flashbots block
// proportion from the aggregates.
func figure3(acc *Accumulator) []Fig3Row {
	out := make([]Fig3Row, 0, types.StudyMonths)
	for m := types.Month(0); m < types.StudyMonths; m++ {
		agg := &acc.months[m]
		if agg.blocks == 0 {
			continue
		}
		out = append(out, Fig3Row{Month: m, FlashbotsBlocks: agg.FBRecords, TotalBlocks: agg.blocks})
	}
	return out
}

// figure4 estimates the monthly Flashbots hashpower share from the
// aggregates (§4.3's estimator).
func figure4(acc *Accumulator) []MonthValue {
	var out []MonthValue
	for m := types.Month(0); m < types.StudyMonths; m++ {
		agg := &acc.months[m]
		if agg.blocks == 0 {
			continue
		}
		fb := 0
		for _, miner := range agg.miners {
			if _, ok := slices.BinarySearchFunc(agg.FBMiners, miner, func(e MinerBlocks, a types.Address) int {
				return bytes.Compare(e.Miner[:], a[:])
			}); ok {
				fb++
			}
		}
		out = append(out, MonthValue{Month: m, Value: float64(fb) / float64(agg.blocks)})
	}
	return out
}

// figure6 computes the sandwich/gas-price series from the aggregates.
func figure6(in Inputs, acc *Accumulator) Fig6 {
	fbSand := map[types.Month]int{}
	nonFBSand := map[types.Month]int{}
	for _, r := range in.Profits {
		if r.Kind != profit.KindSandwich {
			continue
		}
		if r.ViaFlashbots {
			fbSand[r.Month]++
		} else {
			nonFBSand[r.Month]++
		}
	}
	var f Fig6
	var gasSeries, nonFBSeries, allSeries []float64
	for m := types.Month(0); m < types.StudyMonths; m++ {
		agg := &acc.months[m]
		if agg.blocks == 0 {
			continue
		}
		row := Fig6Row{Month: m, FlashbotsSand: fbSand[m], NonFlashbotsSand: nonFBSand[m]}
		if agg.Receipts > 0 {
			row.AvgGasPriceGwei = agg.GasSum / float64(agg.Receipts)
			row.MedianGasPriceGwei = agg.GasMedian
		}
		f.Rows = append(f.Rows, row)
		gasSeries = append(gasSeries, row.AvgGasPriceGwei)
		nonFBSeries = append(nonFBSeries, float64(row.NonFlashbotsSand))
		allSeries = append(allSeries, float64(row.FlashbotsSand+row.NonFlashbotsSand))
	}
	f.CorrNonFB = stats.Pearson(nonFBSeries, gasSeries)
	f.CorrAll = stats.Pearson(allSeries, gasSeries)
	return f
}

// figure7 combines the monthly Figure 7 counts: one row per month with a
// Flashbots record, holding the types with at least one transaction.
func figure7(acc *Accumulator) Fig7 {
	var f Fig7
	for m := types.Month(0); m < types.StudyMonths; m++ {
		agg := &acc.months[m]
		if agg.FBRecords == 0 {
			continue
		}
		row := Fig7Row{Month: m, Searchers: map[string]int{}, Txs: map[string]int{}}
		for k, name := range fig7Types {
			if n := agg.FBTxs[k]; n > 0 {
				row.Txs[name] = n
				row.Searchers[name] = agg.FBSearchers[k]
			}
		}
		f.Rows = append(f.Rows, row)
	}
	return f
}

// bundleStats combines the monthly bundle statistics.
func bundleStats(acc *Accumulator) BundleStats {
	out := BundleStats{ByType: map[string]int{}}
	var nBlocks, nBundles int
	for m := range acc.months {
		nBlocks += len(acc.months[m].BundlesPerBlock)
		nBundles += len(acc.months[m].TxsPerBundle)
	}
	perBlock := make([]float64, 0, nBlocks)
	perBundle := make([]float64, 0, nBundles)
	var byType [bundleTypeSlots]int
	for m := range acc.months {
		s := &acc.months[m].MonthSummary
		perBlock = append(perBlock, s.BundlesPerBlock...)
		perBundle = append(perBundle, s.TxsPerBundle...)
		out.SingleTxBundles += s.SingleTxBundles
		out.MaxBundleTxs = max(out.MaxBundleTxs, s.MaxBundleTxs)
		for t, n := range s.BundlesByType {
			byType[t] += n
		}
	}
	out.FlashbotsBlocks, out.Bundles = nBlocks, nBundles
	for t, n := range byType {
		if n > 0 {
			out.ByType[flashbots.BundleType(t).String()] = n
		}
	}
	out.BundlesPerBlock = stats.Summarize(perBlock)
	out.TxsPerBundle = stats.Summarize(perBundle)
	return out
}
