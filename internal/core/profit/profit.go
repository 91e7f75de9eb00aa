// Package profit computes extractor profit for detected MEV following the
// paper's §3.1 methodology: gain minus costs, where costs are transaction
// fees plus any coinbase tips paid to the miner, and token gains are
// converted to ETH through the historical price series (the CoinGecko
// substitute).
package profit

import (
	"fmt"
	"time"

	"mevscope/internal/chain"
	"mevscope/internal/core/detect"
	"mevscope/internal/flashbots"
	"mevscope/internal/obs"
	"mevscope/internal/parallel"
	"mevscope/internal/prices"
	"mevscope/internal/types"
)

// Kind labels the MEV strategy of a profit record.
type Kind uint8

// MEV strategies.
const (
	KindSandwich Kind = iota
	KindArbitrage
	KindLiquidation
)

// String names the kind with the paper's vocabulary.
func (k Kind) String() string {
	switch k {
	case KindSandwich:
		return "sandwich"
	case KindArbitrage:
		return "arbitrage"
	case KindLiquidation:
		return "liquidation"
	default:
		return "unknown"
	}
}

// Record is one MEV extraction with its economics resolved.
type Record struct {
	Kind  Kind
	Block uint64
	Month types.Month

	Extractor types.Address
	// Txs are the extractor's transactions (front and back for
	// sandwiches).
	Txs []types.Hash
	// VictimTx is set for sandwiches.
	VictimTx types.Hash

	// GainETH is the gross gain; CostETH sums fees, coinbase tips and
	// flash-loan fees; NetETH = GainETH - CostETH.
	GainETH types.Amount
	CostETH types.Amount
	NetETH  types.Amount

	// ViaFlashbots is true when any extractor transaction appears in the
	// Flashbots blocks API; BundleType is its label there.
	ViaFlashbots bool
	BundleType   flashbots.BundleType
	// ViaFlashLoan is true when a FlashLoan event funded the extraction.
	ViaFlashLoan bool
}

// Computer resolves record economics against the chain, the price series
// and the public Flashbots dataset.
type Computer struct {
	Chain  *chain.Chain
	Prices *prices.Series
	WETH   types.Address
	// FBSet maps transaction hashes to bundle types per the Flashbots
	// public API (§3.3).
	FBSet map[types.Hash]flashbots.BundleType
}

// New creates a Computer.
func New(c *chain.Chain, p *prices.Series, weth types.Address, fbset map[types.Hash]flashbots.BundleType) *Computer {
	if fbset == nil {
		fbset = map[types.Hash]flashbots.BundleType{}
	}
	return &Computer{Chain: c, Prices: p, WETH: weth, FBSet: fbset}
}

// txCost returns fee + coinbase tip for one mined transaction.
func (c *Computer) txCost(h types.Hash) (types.Amount, error) {
	rcpt, err := c.Chain.Receipt(h)
	if err != nil {
		return 0, fmt.Errorf("profit: receipt for %v: %w", h.Short(), err)
	}
	return rcpt.Fee() + rcpt.CoinbaseTransfer, nil
}

func (c *Computer) fbType(hashes ...types.Hash) (bool, flashbots.BundleType) {
	for _, h := range hashes {
		if t, ok := c.FBSet[h]; ok {
			return true, t
		}
	}
	return false, flashbots.TypeFlashbots
}

// valueETH converts a token amount into ETH at the price in effect at the
// block; WETH converts 1:1.
func (c *Computer) valueETH(token types.Address, amount types.Amount, block uint64) (types.Amount, error) {
	if token == c.WETH {
		return amount, nil
	}
	v, ok := c.Prices.ValueInETH(token, amount, block)
	if !ok {
		return 0, fmt.Errorf("profit: no price for token %v at block %d", token.Short(), block)
	}
	return v, nil
}

// Sandwich resolves a detected sandwich (§3.1.1): gain is the ether
// difference between the sell-back and the purchase; costs are both
// transaction fees plus coinbase tips.
func (c *Computer) Sandwich(s detect.Sandwich) (Record, error) {
	rec := Record{
		Kind: KindSandwich, Block: s.Block, Month: s.Month,
		Extractor: s.Attacker,
		Txs:       []types.Hash{s.FrontTx, s.BackTx},
		VictimTx:  s.VictimTx,
		GainETH:   s.Gain(),
	}
	for _, h := range rec.Txs {
		cost, err := c.txCost(h)
		if err != nil {
			return rec, err
		}
		rec.CostETH += cost
	}
	rec.NetETH = rec.GainETH - rec.CostETH
	rec.ViaFlashbots, rec.BundleType = c.fbType(rec.Txs...)
	return rec, nil
}

// Arbitrage resolves a detected arbitrage (§3.1.2): gain is the loop
// surplus converted to ETH; costs are the transaction fee, coinbase tips
// and the flash-loan fee if one funded it.
func (c *Computer) Arbitrage(a detect.Arbitrage) (Record, error) {
	rec := Record{
		Kind: KindArbitrage, Block: a.Block, Month: a.Month,
		Extractor:    a.Extractor,
		Txs:          []types.Hash{a.Tx},
		ViaFlashLoan: a.FlashLoan,
	}
	gain, err := c.valueETH(a.Token, a.Gain(), a.Block)
	if err != nil {
		return rec, err
	}
	rec.GainETH = gain
	cost, err := c.txCost(a.Tx)
	if err != nil {
		return rec, err
	}
	rec.CostETH = cost
	if a.FlashLoan {
		fee, err := c.valueETH(a.Token, a.FlashFee, a.Block)
		if err == nil {
			rec.CostETH += fee
		}
	}
	rec.NetETH = rec.GainETH - rec.CostETH
	rec.ViaFlashbots, rec.BundleType = c.fbType(a.Tx)
	return rec, nil
}

// Liquidation resolves a detected liquidation (§3.1.3): gain is the
// received collateral value; costs are the fee, tips, the repaid debt
// value and the flash-loan fee when used.
func (c *Computer) Liquidation(l detect.Liquidation) (Record, error) {
	rec := Record{
		Kind: KindLiquidation, Block: l.Block, Month: l.Month,
		Extractor:    l.Liquidator,
		Txs:          []types.Hash{l.Tx},
		ViaFlashLoan: l.FlashLoan,
	}
	collVal, err := c.valueETH(l.CollateralToken, l.CollateralOut, l.Block)
	if err != nil {
		return rec, err
	}
	debtVal, err := c.valueETH(l.DebtToken, l.DebtRepaid, l.Block)
	if err != nil {
		return rec, err
	}
	rec.GainETH = collVal
	cost, err := c.txCost(l.Tx)
	if err != nil {
		return rec, err
	}
	rec.CostETH = cost + debtVal
	if l.FlashLoan {
		fee, err := c.valueETH(l.DebtToken, l.FlashFee, l.Block)
		if err == nil {
			rec.CostETH += fee
		}
	}
	rec.NetETH = rec.GainETH - rec.CostETH
	rec.ViaFlashbots, rec.BundleType = c.fbType(l.Tx)
	return rec, nil
}

// Tracker resolves detections incrementally as a detector sweep grows: a
// streaming consumer calls Sync after each fed block and the tracker
// resolves only the detections appended since the previous call. Records
// are kept per kind and concatenated sandwiches-then-arbitrages-then-
// liquidations, so Records returns exactly the slice a batch ResolveAll
// over the same sweep produces — whatever block order the detections
// arrived in.
type Tracker struct {
	comp       *Computer
	nS, nA, nL int // consumed detection counts
	sand       []Record
	arb        []Record
	liq        []Record
}

// NewTracker creates an empty tracker over the computer.
func NewTracker(c *Computer) *Tracker { return &Tracker{comp: c} }

// Sync resolves every detection appended to res since the last call,
// skipping records whose economics cannot be resolved. res must be the
// same logically-growing sweep between calls (detections are never
// removed or reordered; detect.Scanner guarantees this).
func (t *Tracker) Sync(res *detect.Result) {
	for ; t.nS < len(res.Sandwiches); t.nS++ {
		if rec, err := t.comp.Sandwich(res.Sandwiches[t.nS]); err == nil {
			t.sand = append(t.sand, rec)
		}
	}
	for ; t.nA < len(res.Arbitrages); t.nA++ {
		if rec, err := t.comp.Arbitrage(res.Arbitrages[t.nA]); err == nil {
			t.arb = append(t.arb, rec)
		}
	}
	for ; t.nL < len(res.Liquidations); t.nL++ {
		if rec, err := t.comp.Liquidation(res.Liquidations[t.nL]); err == nil {
			t.liq = append(t.liq, rec)
		}
	}
}

// Resolved returns the number of resolved records so far.
func (t *Tracker) Resolved() int { return len(t.sand) + len(t.arb) + len(t.liq) }

// Records returns the resolved records in batch order: sandwiches, then
// arbitrages, then liquidations, each in detection order. The slice is a
// fresh copy safe to hold across further Sync calls.
func (t *Tracker) Records() []Record {
	out := make([]Record, 0, t.Resolved())
	out = append(out, t.sand...)
	out = append(out, t.arb...)
	out = append(out, t.liq...)
	return out
}

// ResolveAll converts a full detector sweep into profit records, skipping
// records whose economics cannot be resolved (e.g. missing price history).
// It is the sequential batch path, implemented on the incremental Tracker
// seam: one Sync over the complete sweep.
func (c *Computer) ResolveAll(res *detect.Result) []Record {
	t := NewTracker(c)
	t.Sync(res)
	return t.Records()
}

// ResolveAllParallelSpan resolves the sweep across a worker pool. Every
// detection is independent, so records are computed into index-assigned
// slots and compacted in detector order — the output matches ResolveAll
// exactly for any worker count. workers < 1 selects runtime.NumCPU().
// The resolution records a "profit" stage under the given parent span
// (detection count, pool size, per-worker busy time). A nil parent
// disables recording at zero cost.
func (c *Computer) ResolveAllParallelSpan(res *detect.Result, workers int, parent *obs.Span) []Record {
	sp := parent.Child(obs.StageProfit)
	defer sp.End()
	nS, nA := len(res.Sandwiches), len(res.Arbitrages)
	total := nS + nA + len(res.Liquidations)
	sp.SetTxs(total)
	if workers == 1 {
		if sp == nil {
			return c.ResolveAll(res)
		}
		sp.SetWorkers(1)
		t0 := time.Now() //lint:timing pool-utilization span for the flight recorder, never enters results
		out := c.ResolveAll(res)
		sp.AddBusy(time.Since(t0)) //lint:timing pool-utilization span for the flight recorder, never enters results
		return out
	}
	type slot struct {
		rec Record
		ok  bool
	}
	slots := parallel.MapSpan(sp, total, workers, func(i int) slot {
		var (
			rec Record
			err error
		)
		switch {
		case i < nS:
			rec, err = c.Sandwich(res.Sandwiches[i])
		case i < nS+nA:
			rec, err = c.Arbitrage(res.Arbitrages[i-nS])
		default:
			rec, err = c.Liquidation(res.Liquidations[i-nS-nA])
		}
		return slot{rec: rec, ok: err == nil}
	})
	out := make([]Record, 0, total)
	for _, s := range slots {
		if s.ok {
			out = append(out, s.rec)
		}
	}
	return out
}
