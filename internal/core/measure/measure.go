// Package measure aggregates detector output, the Flashbots public API
// dataset and the private-transaction inference into the paper's tables
// and figures: Table 1 (MEV dataset overview), Figures 3-9 and the §4.1,
// §5.2, §6.2 and §6.3 statistics.
package measure

import (
	"fmt"
	"sort"

	"mevscope/internal/chain"
	"mevscope/internal/core/detect"
	"mevscope/internal/core/privinfer"
	"mevscope/internal/core/profit"
	"mevscope/internal/dataset"
	"mevscope/internal/flashbots"
	"mevscope/internal/obs"
	"mevscope/internal/p2p"
	"mevscope/internal/parallel"
	"mevscope/internal/stats"
	"mevscope/internal/types"
)

// Inputs carries everything the aggregations read. Without Vantages
// (no pending-transaction capture) Figure 9 and §6 are skipped.
type Inputs struct {
	Chain *chain.Chain
	// FBBlocks are the Flashbots API records, ascending by height. Only the
	// aggregate pass reads them, so a month-partial merge holds none.
	FBBlocks []flashbots.BlockRecord
	// FBSet maps transactions the Flashbots records list to their bundle
	// types. Only the §6 inference reads it, and only for verdict
	// transactions, so a month-partial merge holds just the verdict
	// transactions the partials recorded (Partial.FBVerdictTxs); full
	// builds and the follower hold every Flashbots transaction.
	FBSet   map[types.Hash]flashbots.BundleType
	Detect  *detect.Result
	Profits []profit.Record
	// Observer was the resolved observation view.
	//
	// Deprecated: no builder reads it; Inferrer resolves View over
	// Vantages. It stays only so existing Inputs literals that set it
	// still compile.
	Observer privinfer.Observer
	// Vantages are the per-vantage observation logs of the whole
	// observation network, in configuration order (Vantages[0] is the
	// primary); empty when the run has no capture. The §6 inferrer and
	// the vantage-sensitivity artifact read them.
	Vantages []*p2p.Observer
	// Coverage, when set, is the first-occurrence table of the network
	// Vantages come from (p2p.NewCoverage under the unanchored timeline),
	// computed once and shared by every month of a build. Vantages may
	// then extend past the chain head — coverage stats read the table's
	// prefix through the head's month — or, in a month-partial merge,
	// hold only the records a verdict reads. Nil tabulates Vantages on
	// demand.
	Coverage *p2p.Coverage
	// View names the observation view the §6 inference classifies
	// against (see dataset.ResolveViewOf); it also labels the
	// vantage-sensitivity artifact.
	View string
	WETH types.Address

	// Workers sizes the aggregation worker pool (< 1 = every core, as
	// parallel.Workers reads it). Every builder reads the inputs
	// immutably and merges per-month partials in month order, so the
	// report is identical for any worker count.
	Workers int

	// Span, when non-nil, is the parent the aggregate and build stages
	// record themselves under (internal/obs). Tracing never perturbs the
	// report; nil disables it at zero cost.
	Span *obs.Span
}

// Inferrer builds the §6 inferrer a report over the inputs classifies
// with: View resolved over Vantages by dataset.ResolveViewOf, and an
// analysis window from PrivateWindowStartMonth to the chain head. It is
// nil, with no error, when the inputs have no vantages. Full builds and
// month-partial merges both build their inferrer here.
func (in Inputs) Inferrer() (*privinfer.Inferrer, error) {
	view, err := dataset.ResolveViewOf(in.View, in.Vantages)
	if view == nil || err != nil {
		return nil, err
	}
	c := in.Chain
	winStart := c.Timeline.FirstBlockOfMonth(types.PrivateWindowStartMonth)
	inf := privinfer.New(c, view, in.FBSet, winStart, c.Head().Header.Number)
	inf.Workers = in.Workers
	inf.Span = in.Span
	return inf, nil
}

// MinerSetOnChain derives the set of coinbase addresses that ever produced
// a block — the public information the profit-split analysis uses to tell
// miner extractors from searchers.
func MinerSetOnChain(c *chain.Chain) map[types.Address]bool {
	out := map[types.Address]bool{}
	for _, b := range c.Blocks() {
		out[b.Header.Miner] = true
	}
	return out
}

// ---------------------------------------------------------------------------
// Table 1

// Table1Row is one strategy row of the MEV dataset overview.
type Table1Row struct {
	Strategy      string
	Extractions   int
	ViaFlashbots  int
	ViaFlashLoans int
	ViaBoth       int
}

// Pct formats n as a percentage of the row total.
func (r Table1Row) Pct(n int) float64 {
	if r.Extractions == 0 {
		return 0
	}
	return 100 * float64(n) / float64(r.Extractions)
}

// Table1 is the paper's Table 1.
type Table1 struct {
	Rows  []Table1Row // sandwiching, arbitrage, liquidation
	Total Table1Row
}

// BuildTable1 aggregates profit records into Table 1.
func BuildTable1(in Inputs) Table1 {
	rows := map[profit.Kind]*Table1Row{
		profit.KindSandwich:    {Strategy: "Sandwiching"},
		profit.KindArbitrage:   {Strategy: "Arbitrage"},
		profit.KindLiquidation: {Strategy: "Liquidation"},
	}
	for _, r := range in.Profits {
		row := rows[r.Kind]
		row.Extractions++
		if r.ViaFlashbots {
			row.ViaFlashbots++
		}
		if r.ViaFlashLoan {
			row.ViaFlashLoans++
		}
		if r.ViaFlashbots && r.ViaFlashLoan {
			row.ViaBoth++
		}
	}
	t := Table1{Rows: []Table1Row{
		*rows[profit.KindSandwich], *rows[profit.KindArbitrage], *rows[profit.KindLiquidation],
	}}
	t.Total.Strategy = "Total"
	for _, r := range t.Rows {
		t.Total.Extractions += r.Extractions
		t.Total.ViaFlashbots += r.ViaFlashbots
		t.Total.ViaFlashLoans += r.ViaFlashLoans
		t.Total.ViaBoth += r.ViaBoth
	}
	return t
}

// Format renders the table in the paper's layout — a thin walk over the
// table's structured artifact.
func (t Table1) Format() string {
	return formatTable1((&Report{Table1: t}).table1Artifact())
}

// ---------------------------------------------------------------------------
// Figure 3: Flashbots block ratio per month

// MonthValue is one month's scalar data point.
type MonthValue struct {
	Month types.Month
	Value float64
}

// Fig3Row is one month of the block-ratio series.
type Fig3Row struct {
	Month           types.Month
	FlashbotsBlocks int
	TotalBlocks     int
}

// Ratio is the Flashbots share of the month's blocks.
func (r Fig3Row) Ratio() float64 {
	if r.TotalBlocks == 0 {
		return 0
	}
	return float64(r.FlashbotsBlocks) / float64(r.TotalBlocks)
}

// BuildFigure3 computes the monthly Flashbots vs non-Flashbots block
// proportion.
func BuildFigure3(in Inputs) []Fig3Row {
	return figure3(accumulate(in, false))
}

// ---------------------------------------------------------------------------
// Figure 4: estimated Flashbots hashrate per month

// BuildFigure4 estimates the Flashbots hashpower share per month: the
// block share of miners who mined at least one Flashbots block in that
// month (§4.3's estimator).
func BuildFigure4(in Inputs) []MonthValue {
	return figure4(accumulate(in, false))
}

// ---------------------------------------------------------------------------
// Figure 5: miners with at least n Flashbots blocks

// Fig5 reports, per month, how many miners mined at least each threshold
// of Flashbots blocks. Thresholds follow the paper (powers of ten); the
// Scaled thresholds adjust for the compressed blocks-per-month so the
// curve shapes are comparable.
type Fig5 struct {
	Thresholds []int
	// Counts[mi][ti] = miners with ≥ Thresholds[ti] Flashbots blocks in
	// month mi.
	Months []types.Month
	Counts [][]int
}

// BuildFigure5 computes the miners-with-n-blocks distribution. scale
// converts paper thresholds to the compressed chain: thresholds are
// multiplied by blocksPerMonth/190000 (mainnet months are ≈190k blocks),
// with a floor of 1.
func BuildFigure5(in Inputs) Fig5 {
	return figure5(accumulate(in, false))
}

// figure5 is BuildFigure5 over precomputed aggregates.
func figure5(acc *Accumulator) Fig5 {
	paper := []int{1, 10, 100, 1_000, 10_000}
	factor := float64(acc.tl.BlocksPerMonth) / 190_000.0
	thresholds := make([]int, len(paper))
	for i, t := range paper {
		s := int(float64(t) * factor)
		if s < 1 {
			s = 1
		}
		// Keep thresholds strictly increasing after scaling.
		if i > 0 && s <= thresholds[i-1] {
			s = thresholds[i-1] + 1
		}
		thresholds[i] = s
	}
	f := Fig5{Thresholds: thresholds}
	for m := types.Month(0); m < types.StudyMonths; m++ {
		if acc.months[m].blocks == 0 {
			continue
		}
		row := make([]int, len(thresholds))
		for _, mb := range acc.months[m].FBMiners {
			for ti, th := range thresholds {
				if mb.Blocks >= th {
					row[ti]++
				}
			}
		}
		f.Months = append(f.Months, m)
		f.Counts = append(f.Counts, row)
	}
	return f
}

// MaxMinersInAnyMonth returns the peak number of distinct Flashbots miners
// (threshold ≥1) across months — the paper found no month above 55.
func (f Fig5) MaxMinersInAnyMonth() int {
	maxC := 0
	for _, row := range f.Counts {
		if len(row) > 0 && row[0] > maxC {
			maxC = row[0]
		}
	}
	return maxC
}

// ---------------------------------------------------------------------------
// Figure 6: sandwiches vs gas price

// Fig6Row is one month of the sandwich/gas correlation series.
type Fig6Row struct {
	Month              types.Month
	FlashbotsSand      int
	NonFlashbotsSand   int
	AvgGasPriceGwei    float64
	MedianGasPriceGwei float64
}

// Fig6 is the full series plus the correlation the paper discusses.
type Fig6 struct {
	Rows []Fig6Row
	// CorrNonFB is the Pearson correlation between monthly non-Flashbots
	// sandwich counts and average gas price.
	CorrNonFB float64
	// CorrAll correlates total sandwich counts with gas price.
	CorrAll float64
}

// BuildFigure6 computes the sandwich/gas-price series. The per-month gas
// sweep walks every receipt — the heaviest loop in the report — so the
// aggregate pass fans months across the worker pool and merges in month
// order.
func BuildFigure6(in Inputs) Fig6 {
	return figure6(in, accumulate(in, true))
}

// ---------------------------------------------------------------------------
// Figure 7: searchers and transactions by MEV type

// Fig7Row is one month of per-type activity.
type Fig7Row struct {
	Month types.Month
	// Searchers holds distinct extractor counts; Txs transaction counts.
	Searchers map[string]int
	Txs       map[string]int
}

// Fig7 series; type keys: "sandwiches", "arbitrages", "liquidations",
// "other".
type Fig7 struct {
	Rows []Fig7Row
}

// BuildFigure7 counts Flashbots searchers and transactions by MEV type per
// month. "other" covers Flashbots transactions not matched by any MEV
// detector — order-dependent or MEV-protected trades.
func BuildFigure7(in Inputs) Fig7 {
	return figure7(accumulate(in, false))
}

// ---------------------------------------------------------------------------
// Figure 8: sandwich profit distributions

// Fig8 summarizes sandwich profit (net ETH) across the four
// subpopulations of the paper's Figure 8.
type Fig8 struct {
	MinerNonFB    stats.Summary
	MinerFB       stats.Summary
	SearcherNonFB stats.Summary
	SearcherFB    stats.Summary
}

// BuildFigure8 splits sandwich profits by extractor class (miner vs
// searcher, from on-chain coinbase evidence) and channel.
func BuildFigure8(in Inputs) Fig8 {
	return figure8(in, MinerSetOnChain(in.Chain))
}

// figure8 is BuildFigure8 against a precomputed miner set.
func figure8(in Inputs, miners map[types.Address]bool) Fig8 {
	var mFB, mNon, sFB, sNon []float64
	for _, r := range in.Profits {
		if r.Kind != profit.KindSandwich {
			continue
		}
		netETH := r.NetETH.Ether()
		isMiner := miners[r.Extractor]
		switch {
		case isMiner && r.ViaFlashbots:
			mFB = append(mFB, netETH)
		case isMiner:
			mNon = append(mNon, netETH)
		case r.ViaFlashbots:
			sFB = append(sFB, netETH)
		default:
			sNon = append(sNon, netETH)
		}
	}
	return Fig8{
		MinerNonFB:    stats.Summarize(mNon),
		MinerFB:       stats.Summarize(mFB),
		SearcherNonFB: stats.Summarize(sNon),
		SearcherFB:    stats.Summarize(sFB),
	}
}

// ---------------------------------------------------------------------------
// Figure 9 and §6.2: private vs public MEV

// Fig9 is the private/public split of sandwich MEV in the observation
// window.
type Fig9 struct {
	Split privinfer.SandwichSplit
}

// BuildFigure9 classifies window sandwiches via the §6.1 inference.
func BuildFigure9(in Inputs, inf *privinfer.Inferrer) Fig9 {
	return Fig9{Split: inf.SplitSandwiches(in.Detect.Sandwiches)}
}

// ---------------------------------------------------------------------------
// §4.1: bundle statistics

// BundleStats reproduces the §4.1 aggregate bundle numbers.
type BundleStats struct {
	Bundles         int
	FlashbotsBlocks int
	BundlesPerBlock stats.Summary
	TxsPerBundle    stats.Summary
	SingleTxBundles int
	MaxBundleTxs    int
	// ByType counts bundles per BundleType name.
	ByType map[string]int
}

// SingleTxShare is the fraction of bundles containing one transaction.
func (s BundleStats) SingleTxShare() float64 {
	if s.Bundles == 0 {
		return 0
	}
	return float64(s.SingleTxBundles) / float64(s.Bundles)
}

// BuildBundleStats aggregates the public blocks API dataset.
func BuildBundleStats(in Inputs) BundleStats {
	return bundleStats(accumulate(in, false))
}

// ---------------------------------------------------------------------------
// §5.2: negative profits

// NegativeProfits summarizes unprofitable Flashbots sandwiches.
type NegativeProfits struct {
	FlashbotsSandwiches int
	Unprofitable        int
	TotalLossETH        float64
}

// Share is the unprofitable fraction (the paper: ≈1.58 %).
func (n NegativeProfits) Share() float64 {
	if n.FlashbotsSandwiches == 0 {
		return 0
	}
	return float64(n.Unprofitable) / float64(n.FlashbotsSandwiches)
}

// BuildNegativeProfits aggregates §5.2.
func BuildNegativeProfits(in Inputs) NegativeProfits {
	var out NegativeProfits
	for _, r := range in.Profits {
		if r.Kind != profit.KindSandwich || !r.ViaFlashbots {
			continue
		}
		out.FlashbotsSandwiches++
		if r.NetETH < 0 {
			out.Unprofitable++
			out.TotalLossETH += -r.NetETH.Ether()
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Report: everything together

// Report bundles every reproduced artifact.
type Report struct {
	Table1    Table1
	Fig3      []Fig3Row
	Fig4      []MonthValue
	Fig5      Fig5
	Fig6      Fig6
	Fig7      Fig7
	Fig8      Fig8
	Fig9      *Fig9 // nil without an observer
	Bundles   BundleStats
	Negatives NegativeProfits
	// Damage is the victim-loss extension analysis.
	Damage VictimDamage
	// Concentration is the §4.4 mining-concentration analysis.
	Concentration Concentration
	// MEVSplit extends Figure 9 to all MEV kinds (nil without an observer).
	MEVSplit *privinfer.MEVSplit
	// PrivateLinks is the §6.3 account→miner attribution.
	PrivateLinks []privinfer.MinerLink
	// VantageSensitivity is the observation-network robustness analysis:
	// how the §6 private counts move with the vantage you listen from.
	VantageSensitivity VantageSensitivity
}

// Build assembles the full report. inf may be nil when no observation
// window exists. It is the batch path of the incremental Accumulator
// seam: one parallel aggregate pass over the finished chain, then the
// shared builder fan-out — exactly what a streamed accumulator snapshots
// at the same height.
func Build(in Inputs, inf *privinfer.Inferrer) *Report {
	return accumulate(in, true).Report(in, inf)
}

// builderSpec declares one report artifact: its span label, the archive
// columns its builder reads (nil = the full dataset), whether it needs
// the §6 inferrer, and the builder itself. Builders are
// independent read-only passes over the inputs; each writes a distinct
// Report field, which keeps the fan-out assembly deterministic.
type builderSpec struct {
	name string
	// cols names the archive columns (internal/archive column names) the
	// builder reads. The projectable artifacts touch only block headers
	// and the Flashbots API records; everything else walks transactions,
	// receipts or the observation capture and needs a complete dataset.
	cols     []string
	needsInf bool
	run      func(in Inputs, acc *Accumulator, inf *privinfer.Inferrer, r *Report)
}

// headerCols are the columns the header-and-relay artifacts read:
// "headers" and "flashbots" name archive columns (archive.ColHeaders,
// archive.ColFlashbots — spelled out here so measure does not import the
// storage layer).
var headerCols = []string{"headers", "flashbots"}

var builderSpecs = []builderSpec{
	{"table1", nil, false, func(in Inputs, _ *Accumulator, _ *privinfer.Inferrer, r *Report) { r.Table1 = BuildTable1(in) }},
	{"fig3", headerCols, false, func(_ Inputs, acc *Accumulator, _ *privinfer.Inferrer, r *Report) { r.Fig3 = figure3(acc) }},
	{"fig4", headerCols, false, func(_ Inputs, acc *Accumulator, _ *privinfer.Inferrer, r *Report) { r.Fig4 = figure4(acc) }},
	{"fig5", headerCols, false, func(_ Inputs, acc *Accumulator, _ *privinfer.Inferrer, r *Report) { r.Fig5 = figure5(acc) }},
	{"fig6", nil, false, func(in Inputs, acc *Accumulator, _ *privinfer.Inferrer, r *Report) { r.Fig6 = figure6(in, acc) }},
	{"fig7", nil, false, func(_ Inputs, acc *Accumulator, _ *privinfer.Inferrer, r *Report) { r.Fig7 = figure7(acc) }},
	{"fig8", nil, false, func(in Inputs, acc *Accumulator, _ *privinfer.Inferrer, r *Report) {
		r.Fig8 = figure8(in, acc.minerSet)
	}},
	{"bundles", headerCols, false, func(_ Inputs, acc *Accumulator, _ *privinfer.Inferrer, r *Report) { r.Bundles = bundleStats(acc) }},
	{"negatives", nil, false, func(in Inputs, _ *Accumulator, _ *privinfer.Inferrer, r *Report) {
		r.Negatives = BuildNegativeProfits(in)
	}},
	{"damage", nil, false, func(in Inputs, _ *Accumulator, _ *privinfer.Inferrer, r *Report) { r.Damage = BuildVictimDamage(in) }},
	{"concentration", headerCols, false, func(_ Inputs, acc *Accumulator, _ *privinfer.Inferrer, r *Report) {
		r.Concentration = concentration(acc)
	}},
	{"vantages", nil, false, func(in Inputs, _ *Accumulator, _ *privinfer.Inferrer, r *Report) {
		r.VantageSensitivity = BuildVantageSensitivity(in)
	}},
	{"fig9", nil, true, func(in Inputs, _ *Accumulator, inf *privinfer.Inferrer, r *Report) {
		f9 := BuildFigure9(in, inf)
		r.Fig9 = &f9
	}},
	{"mevsplit", nil, true, func(in Inputs, _ *Accumulator, inf *privinfer.Inferrer, r *Report) {
		split := inf.SplitAll(in.Detect)
		r.MEVSplit = &split
	}},
	{"privatelinks", nil, true, func(in Inputs, _ *Accumulator, inf *privinfer.Inferrer, r *Report) {
		r.PrivateLinks = inf.LinkPrivateSandwiches(in.Detect.Sandwiches)
	}},
}

// ProjectionColumns returns the archive columns the named artifact's
// builder reads, or nil when the artifact requires a complete dataset
// (or is unknown). A non-nil result marks the header-level artifacts
// BuildProjection accepts; archive reads always decode whole months, so
// no read takes the result as a column subset.
func ProjectionColumns(artifact string) []string {
	for i := range builderSpecs {
		if builderSpecs[i].name == artifact && builderSpecs[i].cols != nil {
			return append([]string(nil), builderSpecs[i].cols...)
		}
	}
	return nil
}

// runBuilders fans the given specs across the worker pool under a
// StageBuild span, one StageArtifact child per builder.
func runBuilders(in Inputs, acc *Accumulator, inf *privinfer.Inferrer, specs []builderSpec) *Report {
	sp := in.Span.Child(obs.StageBuild)
	defer sp.End()
	r := &Report{}
	parallel.MapSpan(sp, len(specs), in.Workers, func(i int) struct{} {
		bsp := sp.Child(obs.StageArtifact)
		bsp.SetLabel(specs[i].name)
		specs[i].run(in, acc, inf, r)
		bsp.End()
		return struct{}{}
	})
	return r
}

// buildWith assembles the full report from precomputed chain aggregates.
func buildWith(in Inputs, acc *Accumulator, inf *privinfer.Inferrer) *Report {
	specs := make([]builderSpec, 0, len(builderSpecs))
	for _, spec := range builderSpecs {
		if spec.needsInf && inf == nil {
			continue
		}
		specs = append(specs, spec)
	}
	return runBuilders(in, acc, inf, specs)
}

// BuildProjection builds a subset of a full dataset's artifacts — only
// the named ones — into an otherwise-zero Report. Every requested
// artifact must be header-level (ProjectionColumns non-nil), so the
// inputs need no detection, profit or inference results. The artifact
// values it does build are identical to a full Build's.
func BuildProjection(in Inputs, artifacts []string) (*Report, error) {
	var specs []builderSpec
	for _, name := range artifacts {
		found := false
		for _, spec := range builderSpecs {
			if spec.name != name {
				continue
			}
			if spec.cols == nil {
				return nil, fmt.Errorf("measure: artifact %q is not projectable", name)
			}
			specs = append(specs, spec)
			found = true
			break
		}
		if !found {
			return nil, fmt.Errorf("measure: unknown artifact %q", name)
		}
	}
	acc := accumulate(in, false)
	return runBuilders(in, acc, nil, specs), nil
}

// ---------------------------------------------------------------------------
// Extension: victim damage

// VictimDamage quantifies what sandwich victims lost to slippage — the
// externality the paper's introduction motivates (extraction "from all
// participants in the Ethereum ecosystem"). The attacker's gross gain is
// extracted from the victim's execution price, so it lower-bounds the
// victim's loss.
type VictimDamage struct {
	Victims  int
	TotalETH float64
	PerMonth map[types.Month]float64
	Summary  stats.Summary
}

// BuildVictimDamage aggregates per-victim losses from sandwich records.
func BuildVictimDamage(in Inputs) VictimDamage {
	out := VictimDamage{PerMonth: map[types.Month]float64{}}
	var xs []float64
	for _, r := range in.Profits {
		if r.Kind != profit.KindSandwich {
			continue
		}
		loss := r.GainETH.Ether()
		if loss <= 0 {
			continue
		}
		out.Victims++
		out.TotalETH += loss
		out.PerMonth[r.Month] += loss
		xs = append(xs, loss)
	}
	out.Summary = stats.Summarize(xs)
	return out
}

// ---------------------------------------------------------------------------
// §4.4 extension: mining concentration

// Concentration quantifies how concentrated Flashbots block production is
// — the paper's "mining is just as centralized as it was prior to
// Flashbots" takeaway.
type Concentration struct {
	// Gini of per-miner Flashbots block counts, per month.
	GiniPerMonth map[types.Month]float64
	// Top2Share is the fraction of all Flashbots blocks mined by the two
	// most productive miners over the whole dataset.
	Top2Share float64
	// Miners is the number of distinct Flashbots miners overall.
	Miners int
}

// BuildConcentration aggregates §4.4 concentration metrics.
func BuildConcentration(in Inputs) Concentration {
	return concentration(accumulate(in, false))
}

// concentration is BuildConcentration over precomputed aggregates: each
// month's Flashbots miner tallies.
func concentration(acc *Accumulator) Concentration {
	out := Concentration{GiniPerMonth: map[types.Month]float64{}}
	total := map[types.Address]int{}
	blocks := 0
	for m := range acc.months {
		tally := acc.months[m].FBMiners
		if len(tally) == 0 {
			continue
		}
		xs := make([]float64, len(tally))
		for i, mb := range tally {
			xs[i] = float64(mb.Blocks)
			total[mb.Miner] += mb.Blocks
			blocks += mb.Blocks
		}
		sort.Float64s(xs) // Gini is order-insensitive; pin the order anyway
		out.GiniPerMonth[types.Month(m)] = stats.Gini(xs)
	}
	out.Miners = len(total)
	var all []int
	for _, n := range total {
		all = append(all, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(all)))
	top2 := 0
	for i := 0; i < 2 && i < len(all); i++ {
		top2 += all[i]
	}
	if blocks > 0 {
		out.Top2Share = float64(top2) / float64(blocks)
	}
	return out
}
