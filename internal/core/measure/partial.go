package measure

// Month partials: the memoization unit of the serving tier's third cache
// level. A Partial freezes the post-analysis state of every measurement
// stage for exactly one study month — scanner extractions, profit
// records, inference verdicts and the accumulator's chain aggregates —
// so a range request can assemble its report by merging the partials of
// its months instead of re-running detect→profit→privinfer over blocks
// it has analyzed before.
//
// The merge is deterministic and exact: every per-month slice is
// concatenated in the same order the full-range pipeline would have
// produced it (detections in block order, profit records kind-major),
// the accumulator is reconstituted from the frozen per-month aggregates,
// and inference verdicts are replayed through privinfer.FromVerdicts so
// the §6 builders see the same classifications a live observer would
// have produced. The result is byte-identical to a full-range analysis —
// the property the query layer's partial cache relies on.
//
// Two invariants make a month's partial independent of how much of the
// observation network its analysis was handed, so one network restored
// through a build's last month serves every month of the build:
//
//   - Month stability of verdicts. A transaction is never observed
//     pending after it is mined, so observation logs past month m add
//     nothing to the verdicts of transactions mined in m: any network
//     reaching at least m's end classifies m exactly like the full one.
//   - Prefix coverage. dataset.Partition files every observation under
//     its first-seen month, so what the network had seen by the end of
//     month m is the prefix through m of its per-month first-occurrence
//     table (p2p.Coverage); the vantage stats read that prefix, whatever
//     months the table spans beyond m.
//
// Partials serialize to JSON (every field is exported); the round trip
// preserves everything a merge reads.

import (
	"bytes"
	"fmt"
	"sort"

	"mevscope/internal/chain"
	"mevscope/internal/core/detect"
	"mevscope/internal/core/privinfer"
	"mevscope/internal/core/profit"
	"mevscope/internal/flashbots"
	"mevscope/internal/obs"
	"mevscope/internal/types"
)

// Partial is one analyzed study month, frozen for reuse.
type Partial struct {
	// Month is the study month this partial covers.
	Month types.Month `json:"month"`
	// Timeline is the month's restore timeline, re-anchored so
	// StartBlock is the month's first block (archive single-month reads
	// produce exactly this anchoring).
	Timeline types.Timeline `json:"timeline"`
	// WETH is the dataset's WETH address.
	WETH types.Address `json:"weth"`

	// Headers are the month's block headers in height order — enough to
	// rebuild the header-level chain the builders consult (month
	// boundaries, per-block miners).
	Headers []types.Header `json:"headers"`
	// GasSum and Gas freeze the month's receipt gas-price aggregate
	// (the Figure 6 sweep) exactly as the accumulator computed it.
	GasSum float64   `json:"gas_sum"`
	Gas    []float64 `json:"gas,omitempty"`

	// FBBlocks are the month's Flashbots public-API records.
	FBBlocks []flashbots.BlockRecord `json:"fb_blocks,omitempty"`

	// Detector extractions, in block order.
	Sandwiches   []detect.Sandwich    `json:"sandwiches,omitempty"`
	Arbitrages   []detect.Arbitrage   `json:"arbitrages,omitempty"`
	Liquidations []detect.Liquidation `json:"liquidations,omitempty"`
	// FlashLoanTxs is the month's flash-loan transaction set, sorted for
	// a deterministic serialization.
	FlashLoanTxs []types.Hash `json:"flash_loan_txs,omitempty"`

	// Resolved profit records, split by kind and kept in detection
	// order: the full-range resolver emits records kind-major (all
	// sandwiches, then all arbitrages, then all liquidations), so a
	// merged range concatenates each kind across months before
	// concatenating kinds.
	SandwichProfits    []profit.Record `json:"sandwich_profits,omitempty"`
	ArbitrageProfits   []profit.Record `json:"arbitrage_profits,omitempty"`
	LiquidationProfits []profit.Record `json:"liquidation_profits,omitempty"`

	// HasVerdicts records whether the month was analyzed under an open
	// observation window; when false the verdict slices are empty and a
	// merge synthesizes out-of-window verdicts.
	HasVerdicts bool `json:"has_verdicts"`
	// Per-detection §6.1 classifications, index-aligned with the
	// detection slices above.
	SandwichVerdicts    []privinfer.Verdict `json:"sandwich_verdicts,omitempty"`
	ArbitrageVerdicts   []privinfer.Verdict `json:"arbitrage_verdicts,omitempty"`
	LiquidationVerdicts []privinfer.Verdict `json:"liquidation_verdicts,omitempty"`

	// Vantages is the vantage-sensitivity analysis of this month. Its
	// observation counts are the network's coverage through the month's
	// end — a prefix sum of the first-occurrence table — so the last
	// partial of a merged range carries the range's coverage stats while
	// the private-sandwich counts sum across months.
	Vantages VantageSensitivity `json:"vantages"`
}

// NewPartial freezes a single-month analysis. The inputs must cover
// exactly one study month (the chain's first and last blocks fall in the
// same month); inf may be nil when the month has no observation window.
func NewPartial(in Inputs, inf *privinfer.Inferrer) (*Partial, error) {
	if in.Chain == nil || in.Chain.Head() == nil {
		return nil, fmt.Errorf("measure: partial needs a non-empty chain")
	}
	tl := in.Chain.Timeline
	first := tl.MonthOfBlock(tl.StartBlock)
	last := tl.MonthOfBlock(in.Chain.Head().Header.Number)
	if first != last {
		return nil, fmt.Errorf("measure: partial covers months %d..%d, want exactly one", first, last)
	}
	acc := accumulate(in, true)
	agg := &acc.months[first]

	p := &Partial{
		Month:    first,
		Timeline: tl,
		WETH:     in.WETH,
		GasSum:   agg.gasSum,
		Gas:      agg.gas,
		FBBlocks: in.FBBlocks,
	}
	blocks := in.Chain.Blocks()
	p.Headers = make([]types.Header, len(blocks))
	for i, b := range blocks {
		p.Headers[i] = b.Header
	}
	if in.Detect != nil {
		p.Sandwiches = in.Detect.Sandwiches
		p.Arbitrages = in.Detect.Arbitrages
		p.Liquidations = in.Detect.Liquidations
		p.FlashLoanTxs = make([]types.Hash, 0, len(in.Detect.FlashLoanTxs))
		for h := range in.Detect.FlashLoanTxs {
			p.FlashLoanTxs = append(p.FlashLoanTxs, h)
		}
		sort.Slice(p.FlashLoanTxs, func(i, j int) bool {
			return bytes.Compare(p.FlashLoanTxs[i][:], p.FlashLoanTxs[j][:]) < 0
		})
	}
	for _, r := range in.Profits {
		switch r.Kind {
		case profit.KindSandwich:
			p.SandwichProfits = append(p.SandwichProfits, r)
		case profit.KindArbitrage:
			p.ArbitrageProfits = append(p.ArbitrageProfits, r)
		case profit.KindLiquidation:
			p.LiquidationProfits = append(p.LiquidationProfits, r)
		}
	}
	if inf != nil && in.Detect != nil {
		p.HasVerdicts = true
		p.SandwichVerdicts, p.ArbitrageVerdicts, p.LiquidationVerdicts = inf.Verdicts(in.Detect)
	}
	// The vantage analysis is computed under the unanchored timeline: a
	// single-month restore is anchored at its month, and
	// Timeline.MonthOfBlock clamps anything below the anchor to it —
	// which would collapse earlier observation months into this one. The
	// merge re-clamps true months to the assembled range's own anchor,
	// reproducing exactly what a full-range analysis computes.
	gin := in
	gc := *in.Chain
	gc.Timeline = tl.Unanchored()
	gin.Chain = &gc
	p.Vantages = BuildVantageSensitivity(gin)
	return p, nil
}

// SizeBytes estimates the partial's resident size for byte-accounted
// cache eviction. It is an approximation (struct sizes, slice headers
// and map overhead are folded into per-element constants), deliberately
// erring high so the cache stays within budget.
func (p *Partial) SizeBytes() int64 {
	const (
		headerSize    = 96
		fbTxSize      = 48
		sandwichSize  = 256
		arbitrageSize = 192
		liqSize       = 192
		recordSize    = 160
		verdictSize   = 2
		hashSize      = 32
	)
	n := int64(512) // struct + slice headers
	n += int64(len(p.Headers)) * headerSize
	n += int64(len(p.Gas)) * 8
	for i := range p.FBBlocks {
		n += 96 + int64(len(p.FBBlocks[i].Txs))*fbTxSize
	}
	n += int64(len(p.Sandwiches)) * sandwichSize
	for i := range p.Arbitrages {
		n += arbitrageSize + int64(len(p.Arbitrages[i].Pools))*20
	}
	n += int64(len(p.Liquidations)) * liqSize
	n += int64(len(p.FlashLoanTxs)) * hashSize
	n += int64(len(p.SandwichProfits)+len(p.ArbitrageProfits)+len(p.LiquidationProfits)) * recordSize
	n += int64(len(p.SandwichVerdicts)+len(p.ArbitrageVerdicts)+len(p.LiquidationVerdicts)) * verdictSize
	for i := range p.Vantages.Vantages {
		n += 64 + int64(len(p.Vantages.Vantages[i].PerMonth))*16
	}
	n += 64 + int64(len(p.Vantages.Union.PerMonth))*16
	return n
}

// MergePartials assembles the report of a contiguous month range from
// its frozen partials. view labels the merged vantage-sensitivity
// artifact (the observation view the partials were analyzed under);
// workers and sp parameterize the builder fan-out exactly like a full
// Build. The report is byte-identical to a full-range analysis of the
// same months under the same view.
func MergePartials(parts []*Partial, view string, workers int, sp *obs.Span) (*Report, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("measure: merge of zero partials")
	}
	for i, p := range parts {
		if p == nil {
			return nil, fmt.Errorf("measure: nil partial at index %d", i)
		}
		if p.Month < 0 || p.Month >= types.StudyMonths {
			return nil, fmt.Errorf("measure: partial month %d outside the study", p.Month)
		}
		if want := parts[0].Month + types.Month(i); p.Month != want {
			return nil, fmt.Errorf("measure: partials not contiguous: index %d is month %d, want %d", i, p.Month, want)
		}
	}

	// Rebuild the header-level chain over the first partial's anchoring.
	tl := parts[0].Timeline
	c := chain.New(tl)
	var nHeaders int
	for _, p := range parts {
		nHeaders += len(p.Headers)
	}
	blocks := make([]types.Block, nHeaders)
	bi := 0
	for _, p := range parts {
		for i := range p.Headers {
			b := &blocks[bi]
			bi++
			b.Header = p.Headers[i]
			b.Seal()
			if err := c.Append(b); err != nil {
				return nil, fmt.Errorf("measure: merge chain: %w", err)
			}
		}
	}
	if c.Head() == nil {
		return nil, fmt.Errorf("measure: merged partials hold no blocks")
	}

	// Concatenate detections in month order, preallocated.
	var nSand, nArb, nLiq, nFlash, nFB int
	for _, p := range parts {
		nSand += len(p.Sandwiches)
		nArb += len(p.Arbitrages)
		nLiq += len(p.Liquidations)
		nFlash += len(p.FlashLoanTxs)
		nFB += len(p.FBBlocks)
	}
	res := &detect.Result{
		Sandwiches:   make([]detect.Sandwich, 0, nSand),
		Arbitrages:   make([]detect.Arbitrage, 0, nArb),
		Liquidations: make([]detect.Liquidation, 0, nLiq),
		FlashLoanTxs: make(map[types.Hash]bool, nFlash),
	}
	fb := make([]flashbots.BlockRecord, 0, nFB)
	for _, p := range parts {
		res.Sandwiches = append(res.Sandwiches, p.Sandwiches...)
		res.Arbitrages = append(res.Arbitrages, p.Arbitrages...)
		res.Liquidations = append(res.Liquidations, p.Liquidations...)
		for _, h := range p.FlashLoanTxs {
			res.FlashLoanTxs[h] = true
		}
		fb = append(fb, p.FBBlocks...)
	}
	fbset := make(map[types.Hash]flashbots.BundleType)
	for i := range fb {
		for _, tx := range fb[i].Txs {
			fbset[tx.Hash] = tx.BundleType
		}
	}

	// Profit records kind-major, each kind in month order — the exact
	// emission order of the full-range resolver.
	var nProf int
	for _, p := range parts {
		nProf += len(p.SandwichProfits) + len(p.ArbitrageProfits) + len(p.LiquidationProfits)
	}
	profits := make([]profit.Record, 0, nProf)
	for _, p := range parts {
		profits = append(profits, p.SandwichProfits...)
	}
	for _, p := range parts {
		profits = append(profits, p.ArbitrageProfits...)
	}
	for _, p := range parts {
		profits = append(profits, p.LiquidationProfits...)
	}

	// Reconstitute the accumulator from the frozen per-month aggregates:
	// blocks and miners come from the headers, the gas sweep from the
	// stored aggregate. (accumulate() is unusable here — the rebuilt
	// chain is header-only and carries no receipts.)
	acc := &Accumulator{tl: tl, weth: parts[0].WETH, minerSet: make(map[types.Address]bool), fb: fb}
	for _, p := range parts {
		agg := monthAgg{blocks: len(p.Headers), gasSum: p.GasSum, gas: p.Gas}
		agg.miners = make([]types.Address, len(p.Headers))
		for i := range p.Headers {
			agg.miners[i] = p.Headers[i].Miner
			acc.minerSet[p.Headers[i].Miner] = true
		}
		acc.months[p.Month] = agg
	}

	// Replay inference verdicts. The range has an inferrer exactly when
	// its last month was analyzed under an open observation window (the
	// window, once open, never closes before the head). Months sealed
	// before the window opened contribute synthesized out-of-window
	// verdicts — the zero Verdict, which is what classifying them live
	// would produce.
	var inf *privinfer.Inferrer
	if parts[len(parts)-1].HasVerdicts {
		sandV := make([]privinfer.Verdict, 0, nSand)
		arbV := make([]privinfer.Verdict, 0, nArb)
		liqV := make([]privinfer.Verdict, 0, nLiq)
		for _, p := range parts {
			if p.HasVerdicts {
				if len(p.SandwichVerdicts) != len(p.Sandwiches) ||
					len(p.ArbitrageVerdicts) != len(p.Arbitrages) ||
					len(p.LiquidationVerdicts) != len(p.Liquidations) {
					return nil, fmt.Errorf("measure: month %d verdicts misaligned with detections", p.Month)
				}
				sandV = append(sandV, p.SandwichVerdicts...)
				arbV = append(arbV, p.ArbitrageVerdicts...)
				liqV = append(liqV, p.LiquidationVerdicts...)
			} else {
				sandV = sandV[:len(sandV)+len(p.Sandwiches)]
				arbV = arbV[:len(arbV)+len(p.Arbitrages)]
				liqV = liqV[:len(liqV)+len(p.Liquidations)]
			}
		}
		var err error
		inf, err = privinfer.FromVerdicts(c, res, sandV, arbV, liqV)
		if err != nil {
			return nil, err
		}
		inf.FBSet = fbset
		inf.Workers = workers
		inf.Span = sp
	}

	in := Inputs{
		Chain:    c,
		FBBlocks: fb,
		FBSet:    fbset,
		Detect:   res,
		Profits:  profits,
		View:     view,
		WETH:     parts[0].WETH,
		Workers:  workers,
		Span:     sp,
	}
	vs := mergeVantageSensitivity(parts, view)

	// The vantage-sensitivity artifact is the one builder that cannot
	// re-run over a merged dataset (it classifies against the raw
	// observation logs, which partials do not retain); its merged value
	// is assembled from the frozen per-month analyses instead. Every
	// other builder runs through the normal fan-out.
	specs := make([]builderSpec, 0, len(builderSpecs))
	for _, spec := range builderSpecs {
		if spec.needsInf && inf == nil {
			continue
		}
		if spec.name == "vantages" {
			spec.run = func(_ Inputs, _ *Accumulator, _ *privinfer.Inferrer, r *Report) {
				r.VantageSensitivity = vs
			}
		}
		specs = append(specs, spec)
	}
	return runBuilders(in, acc, inf, specs), nil
}

// mergeVantageSensitivity assembles the range's vantage-sensitivity
// artifact from the per-month analyses. Observation coverage (Observed,
// PerMonth) is a prefix property — each partial counts the network's
// coverage through its own month — so the last partial with vantages
// carries the whole range's coverage; the window-sandwich private counts
// are per-month and sum across partials.
func mergeVantageSensitivity(parts []*Partial, view string) VantageSensitivity {
	var last *VantageSensitivity
	for i := range parts {
		if len(parts[i].Vantages.Vantages) > 0 {
			last = &parts[i].Vantages
		}
	}
	if last == nil {
		return VantageSensitivity{View: view}
	}
	// Partials carry PerMonth under the global anchoring; re-clamp to
	// the assembled range's first month, the way the range's own
	// timeline would have mapped observations recorded before it.
	from := parts[0].Month
	clampMonths := func(pm map[types.Month]int) map[types.Month]int {
		out := make(map[types.Month]int, len(pm))
		for m, n := range pm {
			if m < from {
				m = from
			}
			out[m] += n
		}
		return out
	}
	out := VantageSensitivity{View: view}
	out.Vantages = make([]VantageStat, len(last.Vantages))
	copy(out.Vantages, last.Vantages)
	for i := range out.Vantages {
		out.Vantages[i].PrivateSandwiches = 0
		out.Vantages[i].PerMonth = clampMonths(out.Vantages[i].PerMonth)
	}
	out.Union = last.Union
	out.Union.PrivateSandwiches = 0
	out.Union.PerMonth = clampMonths(out.Union.PerMonth)
	for _, p := range parts {
		for i := range p.Vantages.Vantages {
			if i < len(out.Vantages) {
				out.Vantages[i].PrivateSandwiches += p.Vantages.Vantages[i].PrivateSandwiches
			}
		}
		out.Union.PrivateSandwiches += p.Vantages.Union.PrivateSandwiches
	}
	return out
}
