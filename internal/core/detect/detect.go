// Package detect implements the paper's heuristic MEV detectors (§3.1):
//
//   - sandwich detection following Torres et al.: two attacker swaps
//     bracketing a victim swap in the same block, on the same pool, with
//     near-identical bought and sold amounts;
//   - arbitrage detection following Qin et al.: a single transaction whose
//     swap events form a closed loop across exchanges;
//   - liquidation detection from LiquidationCall / LiquidateBorrow events;
//   - flash-loan detection following Wang et al. from FlashLoan events.
//
// Detectors consume only blocks, receipts and event logs — the archive-
// node view. They never see simulator ground truth; tests score them
// against it.
package detect

import (
	"mevscope/internal/chain"
	"mevscope/internal/events"
	"mevscope/internal/obs"
	"mevscope/internal/parallel"
	"mevscope/internal/types"
)

// txEvents are the Swap, FlashLoan and liquidation events one
// transaction emitted, in log order; empty for a failed transaction,
// whose logs no detector reads.
type txEvents struct {
	swaps   []events.Swap
	flashes []events.FlashLoan
	liqs    []events.Liquidation
}

// blockEvents decodes a block's events in one pass over each receipt's
// logs, into flat slices that every detector then reads. A Scanner
// reuses one across blocks, so steady-state scanning allocates only
// what the detectors report.
type blockEvents struct {
	swaps   []events.Swap
	flashes []events.FlashLoan
	liqs    []events.Liquidation
	txs     []txEvents // per receipt, windows into the three slices

	buys, sells []sandwichCandidate // sandwich-matching scratch
}

// decode fills be.txs with the events of every receipt of b. A window
// taken before an append moves its slice stays valid: the old array is
// never written again.
func (be *blockEvents) decode(b *types.Block) {
	be.swaps, be.flashes, be.liqs, be.txs = be.swaps[:0], be.flashes[:0], be.liqs[:0], be.txs[:0]
	for _, rcpt := range b.Receipts {
		s, f, l := len(be.swaps), len(be.flashes), len(be.liqs)
		if rcpt.Status == types.StatusSuccess {
			for _, lg := range rcpt.Logs {
				if ev, ok := events.DecodeSwap(lg); ok {
					be.swaps = append(be.swaps, ev)
				} else if ev, ok := events.DecodeFlashLoan(lg); ok {
					be.flashes = append(be.flashes, ev)
				} else if ev, ok := events.DecodeLiquidation(lg); ok {
					be.liqs = append(be.liqs, ev)
				}
			}
		}
		be.txs = append(be.txs, txEvents{
			swaps:   be.swaps[s:len(be.swaps):len(be.swaps)],
			flashes: be.flashes[f:len(be.flashes):len(be.flashes)],
			liqs:    be.liqs[l:len(be.liqs):len(be.liqs)],
		})
	}
}

// Sandwich is one detected sandwich attack (Definition 1).
type Sandwich struct {
	Block uint64
	Month types.Month

	Attacker types.Address
	Victim   types.Address
	Pool     types.Address
	// Token is the sandwiched asset (bought in the front, sold in the back).
	Token types.Address

	FrontTx  types.Hash
	VictimTx types.Hash
	BackTx   types.Hash

	FrontIndex, VictimIndex, BackIndex int

	// FrontIn is WETH spent in the frontrun; BackOut is WETH recovered in
	// the backrun. Gain = BackOut - FrontIn (before fees and tips).
	FrontIn types.Amount
	BackOut types.Amount

	// GasPriceOrdered records whether the Torres et al. gas-price
	// condition (front gas price > victim gas price) held — true for
	// classic PGA sandwiches, typically false for bundle sandwiches.
	GasPriceOrdered bool
}

// Gain is the attacker's gross WETH delta.
func (s *Sandwich) Gain() types.Amount { return s.BackOut - s.FrontIn }

// sandwichCandidate is a single-swap transaction eligible for matching.
type sandwichCandidate struct {
	txIdx int
	tx    *types.Transaction
	swap  events.Swap
}

// AmountTolerance is the relative tolerance (in basis points) between the
// attacker's bought and sold amounts.
const AmountTolerance = 100 // 1 %

// SandwichesInBlock runs the sandwich heuristics over one block. weth
// anchors the "buy then sell" direction, as in the paper's detectors
// which track ether in/out of the attacker.
func SandwichesInBlock(b *types.Block, weth types.Address) []Sandwich {
	var be blockEvents
	be.decode(b)
	return be.sandwiches(b, weth, nil)
}

// sandwiches appends the sandwiches of the decoded block b to out.
func (be *blockEvents) sandwiches(b *types.Block, weth types.Address, out []Sandwich) []Sandwich {
	// Collect single-swap transactions (multi-hop swaps are arbitrage
	// shaped and excluded from the sandwich heuristic).
	buys, sells := be.buys[:0], be.sells[:0]
	for i, ev := range be.txs {
		if len(ev.swaps) != 1 {
			continue
		}
		c := sandwichCandidate{txIdx: i, tx: b.Txs[i], swap: ev.swaps[0]}
		if c.swap.TokenIn == weth {
			buys = append(buys, c)
		} else if c.swap.TokenOut == weth {
			sells = append(sells, c)
		}
	}
	be.buys, be.sells = buys, sells
	used := map[int]bool{}
	for _, back := range sells {
		if used[back.txIdx] {
			continue
		}
		// Find the matching front: same sender, same pool, earlier in the
		// block, bought ≈ what the back sells.
		for _, front := range buys {
			if used[front.txIdx] || front.txIdx >= back.txIdx {
				continue
			}
			if front.tx.From != back.tx.From || front.swap.Pool != back.swap.Pool {
				continue
			}
			diff := (front.swap.AmountOut - back.swap.AmountIn).Abs()
			if front.swap.AmountOut == 0 || diff.MulDiv(10_000, front.swap.AmountOut) > AmountTolerance {
				continue
			}
			// Find a victim strictly between them: different sender, same
			// pool, same direction as the front.
			for _, vic := range buys {
				if vic.txIdx <= front.txIdx || vic.txIdx >= back.txIdx {
					continue
				}
				if vic.tx.From == front.tx.From || vic.swap.Pool != front.swap.Pool {
					continue
				}
				base := b.Header.BaseFee
				out = append(out, Sandwich{
					Block:    b.Header.Number,
					Month:    types.MonthOf(b.Header.Time),
					Attacker: front.tx.From,
					Victim:   vic.tx.From,
					Pool:     front.swap.Pool,
					Token:    front.swap.TokenOut,
					FrontTx:  front.tx.Hash(), VictimTx: vic.tx.Hash(), BackTx: back.tx.Hash(),
					FrontIndex: front.txIdx, VictimIndex: vic.txIdx, BackIndex: back.txIdx,
					FrontIn: front.swap.AmountIn, BackOut: back.swap.AmountOut,
					GasPriceOrdered: front.tx.EffectiveGasPrice(base) > vic.tx.EffectiveGasPrice(base),
				})
				used[front.txIdx], used[back.txIdx] = true, true
				break
			}
			if used[back.txIdx] {
				break
			}
		}
	}
	return out
}

// Arbitrage is one detected closed-loop arbitrage (Definition 2 family).
type Arbitrage struct {
	Block uint64
	Month types.Month

	Extractor types.Address
	Tx        types.Hash
	TxIndex   int

	// Token is the loop's start/end asset; Hops the number of swaps.
	Token types.Address
	Hops  int
	// Pools traversed, in order.
	Pools []types.Address

	AmountIn  types.Amount
	AmountOut types.Amount

	// FlashLoan marks arbitrages funded by a flash loan; FlashFee is the
	// fee visible in the FlashLoan event.
	FlashLoan bool
	FlashFee  types.Amount
}

// Gain is the gross profit in the loop asset.
func (a *Arbitrage) Gain() types.Amount { return a.AmountOut - a.AmountIn }

// ArbitragesInBlock runs the Qin et al. heuristics over one block: a
// transaction with more than one swap event whose hops chain into a closed
// loop.
func ArbitragesInBlock(b *types.Block) []Arbitrage {
	var be blockEvents
	be.decode(b)
	return be.arbitrages(b, nil)
}

// arbitrages appends the arbitrages of the decoded block b to out.
func (be *blockEvents) arbitrages(b *types.Block, out []Arbitrage) []Arbitrage {
	for i, ev := range be.txs {
		swaps := ev.swaps
		if len(swaps) < 2 {
			continue
		}
		// Hops must chain: out token of hop k is in token of hop k+1.
		chained := true
		for k := 1; k < len(swaps); k++ {
			if swaps[k].TokenIn != swaps[k-1].TokenOut {
				chained = false
				break
			}
		}
		if !chained {
			continue
		}
		// Closed loop: ends where it starts.
		if swaps[len(swaps)-1].TokenOut != swaps[0].TokenIn {
			continue
		}
		arb := Arbitrage{
			Block:     b.Header.Number,
			Month:     types.MonthOf(b.Header.Time),
			Extractor: b.Txs[i].From,
			Tx:        b.Txs[i].Hash(),
			TxIndex:   i,
			Token:     swaps[0].TokenIn,
			Hops:      len(swaps),
			AmountIn:  swaps[0].AmountIn,
			AmountOut: swaps[len(swaps)-1].AmountOut,
		}
		arb.Pools = make([]types.Address, len(swaps))
		for k, sw := range swaps {
			arb.Pools[k] = sw.Pool
		}
		if len(ev.flashes) > 0 {
			arb.FlashLoan = true
			arb.FlashFee = ev.flashes[0].Fee
		}
		out = append(out, arb)
	}
	return out
}

// Liquidation is one detected lending-pool liquidation (§3.1.3).
type Liquidation struct {
	Block uint64
	Month types.Month

	Liquidator types.Address
	Borrower   types.Address
	Protocol   types.Address
	Tx         types.Hash
	TxIndex    int

	DebtToken       types.Address
	CollateralToken types.Address
	DebtRepaid      types.Amount
	CollateralOut   types.Amount
	Compound        bool

	FlashLoan bool
	FlashFee  types.Amount
}

// LiquidationsInBlock extracts liquidation events from one block.
func LiquidationsInBlock(b *types.Block) []Liquidation {
	var be blockEvents
	be.decode(b)
	return be.liquidations(b, nil)
}

// liquidations appends the liquidations of the decoded block b to out.
func (be *blockEvents) liquidations(b *types.Block, out []Liquidation) []Liquidation {
	for i, ev := range be.txs {
		for _, lq := range ev.liqs {
			l := Liquidation{
				Block:      b.Header.Number,
				Month:      types.MonthOf(b.Header.Time),
				Liquidator: lq.Liquidator,
				Borrower:   lq.Borrower,
				Protocol:   lq.Protocol,
				Tx:         b.Txs[i].Hash(),
				TxIndex:    i,
				DebtToken:  lq.DebtToken, CollateralToken: lq.CollateralToken,
				DebtRepaid: lq.DebtRepaid, CollateralOut: lq.CollateralOut,
				Compound: lq.Compound,
			}
			if len(ev.flashes) > 0 {
				l.FlashLoan = true
				l.FlashFee = ev.flashes[0].Fee
			}
			out = append(out, l)
		}
	}
	return out
}

// Result is the full detector sweep over a block range.
type Result struct {
	Sandwiches   []Sandwich
	Arbitrages   []Arbitrage
	Liquidations []Liquidation
	// FlashLoanTxs is every transaction that emitted a FlashLoan event,
	// whether or not an MEV detector matched it.
	FlashLoanTxs map[types.Hash]bool
}

// merge appends other's findings onto res, preserving block order when
// partial results are merged in ascending chunk order.
func (res *Result) merge(other *Result) {
	res.Sandwiches = append(res.Sandwiches, other.Sandwiches...)
	res.Arbitrages = append(res.Arbitrages, other.Arbitrages...)
	res.Liquidations = append(res.Liquidations, other.Liquidations...)
	for h := range other.FlashLoanTxs {
		res.FlashLoanTxs[h] = true
	}
}

// Scanner is the incremental detector front-end: it consumes blocks one
// at a time in ascending order and accumulates the same Result a batch
// sweep over the fed range produces. Both the streaming block-follower
// (internal/stream) and the batch Scan/ScanParallelSpan paths are built
// on it, so there is exactly one detector seam.
type Scanner struct {
	weth types.Address
	res  *Result
	ev   blockEvents
}

// NewScanner creates a Scanner anchored on the WETH address.
func NewScanner(weth types.Address) *Scanner {
	return &Scanner{weth: weth, res: &Result{FlashLoanTxs: make(map[types.Hash]bool)}}
}

// Feed runs every detector over one block, appending the findings. Blocks
// must be fed in ascending height order for the Result to match a batch
// sweep byte for byte.
func (s *Scanner) Feed(b *types.Block) {
	res := s.res
	s.ev.decode(b)
	res.Sandwiches = s.ev.sandwiches(b, s.weth, res.Sandwiches)
	res.Arbitrages = s.ev.arbitrages(b, res.Arbitrages)
	res.Liquidations = s.ev.liquidations(b, res.Liquidations)
	for i, ev := range s.ev.txs {
		if len(ev.flashes) > 0 {
			res.FlashLoanTxs[b.Txs[i].Hash()] = true
		}
	}
}

// Result returns the live accumulated sweep. The pointer stays valid (and
// keeps growing) across subsequent Feed calls.
func (s *Scanner) Result() *Result { return s.res }

// Counts returns the current number of detections per kind — the cursor
// incremental consumers (profit.Tracker, privinfer.Inferrer.Feed) use to
// pick up where they left off.
func (s *Scanner) Counts() (sandwiches, arbitrages, liquidations int) {
	return len(s.res.Sandwiches), len(s.res.Arbitrages), len(s.res.Liquidations)
}

// Scan runs every detector over chain blocks in [from, to] sequentially.
func Scan(c *chain.Chain, weth types.Address, from, to uint64) *Result {
	return ScanParallelSpan(c, weth, from, to, 1, nil)
}

// ScanParallelSpan fans blocks in [from, to] across a worker pool. Each
// worker feeds a contiguous block range through its own Scanner; partial
// results are merged in ascending block order, so the output is
// identical to the sequential Scan — and to a single Scanner fed every
// block — for any worker count. workers < 1 selects runtime.NumCPU().
// The sweep records a "detect" stage under the given parent span: block
// count, detection count, pool size and per-worker busy time land on the
// trace. A nil parent disables recording at zero cost; the result is
// identical either way.
func ScanParallelSpan(c *chain.Chain, weth types.Address, from, to uint64, workers int, parent *obs.Span) *Result {
	sp := parent.Child(obs.StageDetect)
	defer sp.End()
	var blocks []*types.Block
	c.Range(from, to, func(b *types.Block) bool {
		blocks = append(blocks, b)
		return true
	})
	sp.SetBlocks(len(blocks))
	parts := parallel.MapChunksSpan(sp, len(blocks), workers, func(lo, hi int) *Result {
		sc := NewScanner(weth)
		for _, b := range blocks[lo:hi] {
			sc.Feed(b)
		}
		return sc.Result()
	})
	res := &Result{FlashLoanTxs: make(map[types.Hash]bool)}
	for _, part := range parts {
		res.merge(part)
	}
	sp.SetTxs(len(res.Sandwiches) + len(res.Arbitrages) + len(res.Liquidations))
	return res
}

// ScanAll sweeps the whole chain.
func ScanAll(c *chain.Chain, weth types.Address) *Result {
	return Scan(c, weth, c.Timeline.StartBlock, c.Timeline.EndBlock())
}
