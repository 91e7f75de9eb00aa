package measure

// Month partials: the memoization unit of the serving tier's third cache
// level. A Partial freezes what the report builders read of exactly one
// study month — scanner extractions, profit records, the month's block
// headers and hashes, its summary (the gas count, sum and median, the
// Flashbots miner tallies, the Figure 7 counts and the bundle
// statistics, MonthSummary), the Flashbots membership of its verdict
// transactions and its observation capture — so a range request can
// assemble its report by merging the partials of its months instead of
// re-running detect→profit over blocks it has analyzed before, and the
// merge only combines what each month already derived. A partial keeps
// no Flashbots record: every builder reads the records through the
// month summaries.
//
// A partial holds no §6 verdict, so one partial per month serves every
// observation view. Its capture is, for each vantage, that vantage's
// records of the transactions a verdict reads (sandwich front and back
// transactions, arbitrage and liquidation transactions), plus the
// network's first-occurrence coverage table (p2p.Coverage) through the
// month. A merge restores each vantage from its records across the
// range, resolves the view over them with dataset.ResolveViewOf, and
// runs the inferrer and builders a full build runs (Inputs.Inferrer,
// buildWith). A verdict reads Flashbots membership only of the same
// transactions, so the merge's Inputs.FBSet holds just those.
//
// The merge is deterministic and exact: detections concatenate in block
// order and profit records kind-major, as the full-range pipeline emits
// them, the accumulator is reconstituted from the frozen month
// summaries, the header-level chain keeps the hashes the month's read
// sealed, and two invariants make the restored network agree with the
// full range's on every lookup a verdict or BuildVantageSensitivity
// makes:
//
//   - Month stability. A transaction is never observed pending after it
//     is mined, so every record of a transaction mined in month m is
//     filed at or before m, and any network restored through m or later
//     holds it. A month gets a network exactly when the observer started
//     by its last block, whichever build reads it, so the range has a
//     network exactly when its last partial has a capture.
//   - Prefix coverage. dataset.Partition files every observation under
//     its first-seen month, so what the network had seen by the end of
//     month m is the prefix through m of its first-occurrence table. A
//     partial keeps that prefix, with the rows past its month zeroed, so
//     the last partial of a range carries the range's coverage table,
//     however far the network its analysis was handed ran.
//
// Partials serialize to JSON (every field is exported); the round trip
// preserves everything a merge reads.

import (
	"bytes"
	"fmt"
	"sort"
	"unsafe"

	"mevscope/internal/chain"
	"mevscope/internal/core/detect"
	"mevscope/internal/core/profit"
	"mevscope/internal/flashbots"
	"mevscope/internal/obs"
	"mevscope/internal/p2p"
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
	// boundaries, per-block miners). Hashes holds each block's hash as
	// the month's read sealed it, one per header, so the rebuilt chain's
	// blocks carry the hashes of the full restore's.
	Headers []types.Header `json:"headers"`
	Hashes  []types.Hash   `json:"hashes"`
	// Summary is the month's summary exactly as the accumulator derived
	// it: the receipt gas count, sum and median (Figure 6), the Flashbots
	// miner tallies, the Figure 7 counts and the bundle statistics.
	Summary MonthSummary `json:"summary"`

	// FBVerdictTxs is the Flashbots membership of the month's verdict
	// transactions: each one the Flashbots records list, with its bundle
	// type, in verdict order — all a merge's §6 inference looks up.
	FBVerdictTxs []FlashbotsTx `json:"fb_verdict_txs,omitempty"`

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

	// Captures holds one entry per vantage of the month's observation
	// network, in configuration order; empty when the month has no
	// network (the observer had not started by its last block).
	Captures []Capture `json:"captures,omitempty"`
	// Coverage is the network's first-occurrence table through Month —
	// the counts of later months zeroed — with one vantage row per
	// capture.
	Coverage p2p.Coverage `json:"coverage"`
}

// FlashbotsTx is one transaction's Flashbots membership: the bundle type
// the Flashbots records list it under.
type FlashbotsTx struct {
	Hash types.Hash           `json:"hash"`
	Type flashbots.BundleType `json:"type"`
}

// Capture is one vantage's share of a month partial: its graph position,
// its observation window and its records of the month's verdict
// transactions, in detection order — what p2p.RestoreVantage rebuilds
// the vantage from for a merge's §6 lookups.
type Capture struct {
	Node    int              `json:"node"`
	Start   uint64           `json:"start"`
	Stop    uint64           `json:"stop"`
	Records []p2p.ObservedTx `json:"records,omitempty"`
}

// NewPartial freezes a single-month analysis. The inputs must cover
// exactly one study month (the chain's first and last blocks fall in the
// same month). Their view is ignored: the partial keeps the month's
// capture of every vantage in in.Vantages, which may run past the month.
func NewPartial(in Inputs) (*Partial, error) {
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
		Summary:  agg.MonthSummary,
	}
	blocks := in.Chain.Blocks()
	p.Headers = make([]types.Header, len(blocks))
	p.Hashes = make([]types.Hash, len(blocks))
	for i, b := range blocks {
		p.Headers[i] = b.Header
		p.Hashes[i] = b.Hash()
	}
	var txs []types.Hash
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
		txs = verdictTxs(in.Detect)
	}
	for _, h := range txs {
		if t, ok := in.FBSet[h]; ok {
			p.FBVerdictTxs = append(p.FBVerdictTxs, FlashbotsTx{h, t})
		}
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
	if len(in.Vantages) == 0 {
		return p, nil
	}
	for _, v := range in.Vantages {
		c := Capture{Node: v.Node()}
		c.Start, c.Stop = v.Window()
		for _, h := range txs {
			if r, ok := v.Record(h); ok {
				c.Records = append(c.Records, r)
			}
		}
		p.Captures = append(p.Captures, c)
	}
	cov := coverage(in)
	p.Coverage.Vantages = make([][types.StudyMonths]int, len(cov.Vantages))
	for i := range cov.Vantages {
		copy(p.Coverage.Vantages[i][:first+1], cov.Vantages[i][:first+1])
	}
	copy(p.Coverage.Union[:first+1], cov.Union[:first+1])
	return p, nil
}

// verdictTxs lists the transactions a §6 verdict reads — sandwich front
// and back transactions, then arbitrage and liquidation transactions —
// each once, in detection order.
func verdictTxs(res *detect.Result) []types.Hash {
	seen := make(map[types.Hash]bool)
	var out []types.Hash
	add := func(h types.Hash) {
		if !seen[h] {
			seen[h] = true
			out = append(out, h)
		}
	}
	for _, s := range res.Sandwiches {
		add(s.FrontTx)
		add(s.BackTx)
	}
	for _, a := range res.Arbitrages {
		add(a.Tx)
	}
	for _, l := range res.Liquidations {
		add(l.Tx)
	}
	return out
}

// SizeBytes estimates the partial's resident size for byte-accounted
// cache eviction: every array it retains at its element size times its
// capacity, plus an eighth for allocator size-class rounding, so the
// estimate errs high and the cache stays within budget.
func (p *Partial) SizeBytes() int64 {
	n := int64(unsafe.Sizeof(*p))
	n += arrayBytes(p.Headers) + arrayBytes(p.Hashes) + arrayBytes(p.FBVerdictTxs)
	n += arrayBytes(p.Summary.FBMiners) + arrayBytes(p.Summary.BundlesPerBlock) + arrayBytes(p.Summary.TxsPerBundle)
	n += arrayBytes(p.Sandwiches) + arrayBytes(p.Arbitrages) + arrayBytes(p.Liquidations)
	for i := range p.Arbitrages {
		n += arrayBytes(p.Arbitrages[i].Pools)
	}
	n += arrayBytes(p.FlashLoanTxs)
	for _, recs := range [][]profit.Record{p.SandwichProfits, p.ArbitrageProfits, p.LiquidationProfits} {
		n += arrayBytes(recs)
		for i := range recs {
			n += arrayBytes(recs[i].Txs)
		}
	}
	n += arrayBytes(p.Captures) + arrayBytes(p.Coverage.Vantages)
	for i := range p.Captures {
		n += arrayBytes(p.Captures[i].Records)
	}
	return n + n/8
}

// arrayBytes is the size of the array backing s.
func arrayBytes[T any](s []T) int64 {
	var zero T
	return int64(unsafe.Sizeof(zero)) * int64(cap(s))
}

// MergePartials assembles the report of a contiguous month range from
// its frozen partials, classifying against view. It restores each
// vantage from its records across the range, takes the last partial's
// coverage table as the range's, and then runs what a full Build runs:
// Inputs.Inferrer and the builders, on one worker — all of it recorded
// as one analyze:merge span under sp, the infer and build stages nested
// in it. The report is byte-identical to a full-range analysis of the
// same months under the same view, whatever views the partials' months
// were analyzed under.
func MergePartials(parts []*Partial, view string, sp *obs.Span) (*Report, error) {
	sp = sp.Child(obs.StageMerge)
	defer sp.End()
	if len(parts) == 0 {
		return nil, fmt.Errorf("measure: merge of zero partials")
	}
	vantages := 0 // captured by an earlier month
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
		if len(p.Hashes) != len(p.Headers) {
			return nil, fmt.Errorf("measure: month %s holds %d block hashes for %d headers",
				p.Month.Label(), len(p.Hashes), len(p.Headers))
		}
		if len(p.Coverage.Vantages) != len(p.Captures) {
			return nil, fmt.Errorf("measure: month %s captures %d vantages but its coverage table has %d",
				p.Month.Label(), len(p.Captures), len(p.Coverage.Vantages))
		}
		if vantages > 0 && len(p.Captures) != vantages {
			return nil, fmt.Errorf("measure: month %s captures %d vantages, an earlier month %d",
				p.Month.Label(), len(p.Captures), vantages)
		}
		vantages = max(vantages, len(p.Captures))
	}

	c, err := mergedChain(parts)
	if err != nil {
		return nil, err
	}
	tl := c.Timeline

	// Concatenate detections in month order, preallocated.
	var nSand, nArb, nLiq, nFlash, nFBTxs int
	for _, p := range parts {
		nSand += len(p.Sandwiches)
		nArb += len(p.Arbitrages)
		nLiq += len(p.Liquidations)
		nFlash += len(p.FlashLoanTxs)
		nFBTxs += len(p.FBVerdictTxs)
	}
	res := &detect.Result{
		Sandwiches:   make([]detect.Sandwich, 0, nSand),
		Arbitrages:   make([]detect.Arbitrage, 0, nArb),
		Liquidations: make([]detect.Liquidation, 0, nLiq),
		FlashLoanTxs: make(map[types.Hash]bool, nFlash),
	}
	fbset := make(map[types.Hash]flashbots.BundleType, nFBTxs)
	for _, p := range parts {
		res.Sandwiches = append(res.Sandwiches, p.Sandwiches...)
		res.Arbitrages = append(res.Arbitrages, p.Arbitrages...)
		res.Liquidations = append(res.Liquidations, p.Liquidations...)
		for _, h := range p.FlashLoanTxs {
			res.FlashLoanTxs[h] = true
		}
		for _, t := range p.FBVerdictTxs {
			fbset[t.Hash] = t.Type
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

	// Reconstitute the accumulator from the frozen month summaries:
	// blocks and miners come from the headers. (accumulate() is unusable
	// here — the rebuilt chain is header-only and carries no receipts.)
	acc := &Accumulator{tl: tl, weth: parts[0].WETH, minerSet: make(map[types.Address]bool)}
	miners := make([]types.Address, c.Len())
	for _, p := range parts {
		agg := monthAgg{blocks: len(p.Headers), MonthSummary: p.Summary}
		agg.miners, miners = miners[:len(p.Headers):len(p.Headers)], miners[len(p.Headers):]
		for i := range p.Headers {
			agg.miners[i] = p.Headers[i].Miner
			acc.minerSet[p.Headers[i].Miner] = true
		}
		acc.months[p.Month] = agg
	}

	in := Inputs{
		Chain:   c,
		FBSet:   fbset,
		Detect:  res,
		Profits: profits,
		View:    view,
		WETH:    parts[0].WETH,
		Workers: 1,
		Span:    sp,
	}
	if last := parts[len(parts)-1]; len(last.Captures) > 0 {
		records := make([][]p2p.ObservedTx, len(last.Captures))
		for _, p := range parts {
			for v := range p.Captures {
				records[v] = append(records[v], p.Captures[v].Records...)
			}
		}
		for v, cp := range last.Captures {
			in.Vantages = append(in.Vantages, p2p.RestoreVantage(cp.Node, records[v], cp.Start, cp.Stop))
		}
		in.Coverage = &last.Coverage
	}
	inf, err := in.Inferrer()
	if err != nil {
		return nil, err
	}
	return buildWith(in, acc, inf), nil
}

// mergedChain rebuilds the header-level chain of contiguous partials over
// the first one's anchoring, each block sealed with the hash its month's
// read computed.
func mergedChain(parts []*Partial) (*chain.Chain, error) {
	var n int
	for _, p := range parts {
		n += len(p.Headers)
	}
	c := chain.NewSized(parts[0].Timeline, n)
	blocks := make([]types.Block, n)
	bi := 0
	for _, p := range parts {
		for i := range p.Headers {
			b := &blocks[bi]
			bi++
			b.Header = p.Headers[i]
			b.SealWith(p.Hashes[i])
			if err := c.Append(b); err != nil {
				return nil, fmt.Errorf("measure: merge chain: %w", err)
			}
		}
	}
	if c.Head() == nil {
		return nil, fmt.Errorf("measure: merged partials hold no blocks")
	}
	return c, nil
}
