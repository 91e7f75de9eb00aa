// Package evmlite executes transactions against the simulated world state.
//
// It is a drastically simplified EVM: instead of bytecode, transactions
// carry typed payloads (swap, liquidate, flash loan, …) that the executor
// interprets. What it preserves faithfully is everything the measurement
// pipeline depends on:
//
//   - gas accounting with legacy and EIP-1559 (London) pricing, including
//     base-fee burn and miner tips,
//   - atomic execution with full revert of state, loan bookkeeping and
//     oracle prices on failure — which is what makes flash loans possible,
//   - event-log emission using the vocabulary in internal/events,
//   - direct-to-coinbase payments (how Flashbots searchers pay miners),
//     surfaced in receipts.
package evmlite

import (
	"errors"
	"fmt"

	"mevscope/internal/dex"
	"mevscope/internal/events"
	"mevscope/internal/lending"
	"mevscope/internal/state"
	"mevscope/internal/types"
)

// Errors surfaced by transaction validation (the block builder rejects
// such transactions; they never make it into a block).
var (
	ErrCannotPayFee = errors.New("evmlite: sender cannot cover gas fee")
	ErrFeeCapTooLow = errors.New("evmlite: fee cap below base fee")
	ErrGasTooLow    = errors.New("evmlite: gas limit below intrinsic cost")
)

// Gas schedule: flat per-action costs in the spirit of mainnet magnitudes.
const (
	GasTransfer      = 21_000
	GasTokenTransfer = 52_000
	GasSwapBase      = 100_000
	GasSwapPerHop    = 62_000
	GasLiquidate     = 420_000
	GasFlashLoanBase = 210_000
	GasOracleUpdate  = 55_000
	GasPayoutPer     = 21_000
	GasAddLiquidity  = 130_000
	GasNoop          = 40_000
)

// GasFor returns the gas an action consumes when executed.
func GasFor(p *types.Payload) uint64 {
	switch p.Kind {
	case types.TxTransfer:
		return GasTransfer
	case types.TxTokenTransfer:
		return GasTokenTransfer
	case types.TxSwap:
		return GasSwapBase + GasSwapPerHop
	case types.TxMultiSwap:
		return GasSwapBase + GasSwapPerHop*uint64(len(p.Hops))
	case types.TxLiquidate:
		return GasLiquidate
	case types.TxFlashLoan:
		g := uint64(GasFlashLoanBase)
		if p.Inner != nil {
			g += GasFor(p.Inner)
		}
		return g
	case types.TxOracleUpdate:
		return GasOracleUpdate
	case types.TxMinerPayout:
		return GasPayoutPer * uint64(max(1, len(p.Payouts)))
	case types.TxAddLiquidity:
		return GasAddLiquidity
	default:
		return GasNoop
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Env is the world the executor mutates.
type Env struct {
	State   *state.State
	Venues  *dex.Registry
	Lending *lending.Registry
	Oracle  *lending.Oracle
	// WETH is the ether-equivalent trading token; profit analysis treats
	// it 1:1 with ETH, as the paper does.
	WETH types.Address
}

// BlockCtx is the per-block execution context.
type BlockCtx struct {
	Number  uint64
	BaseFee types.Amount // zero pre-London
	Miner   types.Address
}

// Executor applies transactions to an Env.
type Executor struct {
	Env Env

	revs     []reverter   // Env's journaled stores, built by reverters
	revProts int          // lending protocols revs covers
	arena    events.Arena // topics and data of executed transactions' logs
	logs     []types.Log  // the running transaction's logs
}

// New creates an executor over the environment.
func New(env Env) *Executor { return &Executor{Env: env} }

// Validate checks that a transaction can be included in a block with the
// given base fee: intrinsic gas fits the limit, the fee cap clears the base
// fee and the sender can pay the worst-case fee plus value and tip.
func (ex *Executor) Validate(tx *types.Transaction, baseFee types.Amount) error {
	need := GasFor(&tx.Payload)
	if tx.GasLimit < need {
		return fmt.Errorf("%w: need %d have %d", ErrGasTooLow, need, tx.GasLimit)
	}
	if baseFee > 0 && tx.BidPrice() < baseFee {
		return fmt.Errorf("%w: cap %v base %v", ErrFeeCapTooLow, tx.BidPrice(), baseFee)
	}
	price := tx.EffectiveGasPrice(baseFee)
	worst := types.Amount(need)*price + tx.Value + tx.CoinbaseTip
	if ex.Env.State.Balance(tx.From) < worst {
		return fmt.Errorf("%w: need %v have %v", ErrCannotPayFee, worst, ex.Env.State.Balance(tx.From))
	}
	return nil
}

// Apply executes a transaction and returns its receipt. The caller must
// have validated the transaction first; Apply returns an error only for
// invalid transactions (which consensus would never include), while
// in-protocol failures produce a StatusFailed receipt with fees charged.
func (ex *Executor) Apply(ctx BlockCtx, tx *types.Transaction, txIndex int) (*types.Receipt, error) {
	if err := ex.Validate(tx, ctx.BaseFee); err != nil {
		return nil, err
	}
	st := ex.Env.State
	gasUsed := GasFor(&tx.Payload)
	price := tx.EffectiveGasPrice(ctx.BaseFee)
	fee := types.Amount(gasUsed) * price
	tipPart := types.Amount(gasUsed) * tx.EffectiveTip(ctx.BaseFee)
	burnPart := fee - tipPart

	// Fees are charged unconditionally, success or failure.
	if burnPart > 0 {
		if err := st.Burn(tx.From, burnPart); err != nil {
			return nil, err
		}
	}
	if tipPart > 0 {
		if err := st.Transfer(tx.From, ctx.Miner, tipPart); err != nil {
			return nil, err
		}
	}

	rcpt := &types.Receipt{
		TxHash:            tx.Hash(),
		TxIndex:           txIndex,
		GasUsed:           gasUsed,
		EffectiveGasPrice: price,
	}

	// The action itself runs under a snapshot of every journaled store.
	revs := ex.reverters()
	for _, r := range revs {
		r.Snapshot()
	}
	logs, err := ex.run(ctx, tx)
	if err == nil && tx.CoinbaseTip > 0 {
		// Flashbots-style conditional payment: only lands if the action
		// succeeded (it is inside the snapshot).
		err = st.Transfer(tx.From, ctx.Miner, tx.CoinbaseTip)
	}
	if err != nil {
		for i := len(revs) - 1; i >= 0; i-- {
			revs[i].Revert()
		}
		rcpt.Status = types.StatusFailed
		return rcpt, nil
	}
	for i := len(revs) - 1; i >= 0; i-- {
		revs[i].Commit()
	}
	rcpt.Status = types.StatusSuccess
	rcpt.Logs = logs
	if tx.CoinbaseTip > 0 {
		rcpt.CoinbaseTransfer = tx.CoinbaseTip
	}
	return rcpt, nil
}

// ApplyBundle executes an atomic transaction sequence: if any transaction
// is invalid or reverts, every effect of the whole sequence is rolled back
// and ok is false. This is MEV-geth's bundle semantics — miners simulate a
// bundle and discard it unless every transaction succeeds.
func (ex *Executor) ApplyBundle(ctx BlockCtx, txs []*types.Transaction, startIndex int) (receipts []*types.Receipt, ok bool) {
	revs := ex.reverters()
	for _, r := range revs {
		r.Snapshot()
	}
	for i, tx := range txs {
		rcpt, err := ex.Apply(ctx, tx, startIndex+i)
		if err != nil || rcpt.Status != types.StatusSuccess {
			for j := len(revs) - 1; j >= 0; j-- {
				revs[j].Revert()
			}
			return nil, false
		}
		receipts = append(receipts, rcpt)
	}
	for j := len(revs) - 1; j >= 0; j-- {
		revs[j].Commit()
	}
	return receipts, true
}

// reverter is anything with snapshot/revert/commit semantics.
type reverter interface {
	Snapshot()
	Revert()
	Commit()
}

// reverters returns the Env's journaled stores: the ledger, the oracle
// and every lending protocol. The list is built once and rebuilt only
// when the lending registry grows.
func (ex *Executor) reverters() []reverter {
	prots := 0
	if ex.Env.Lending != nil {
		prots = len(ex.Env.Lending.Protocols())
	}
	if ex.revs != nil && prots == ex.revProts {
		return ex.revs
	}
	revs := []reverter{ex.Env.State}
	if ex.Env.Oracle != nil {
		revs = append(revs, ex.Env.Oracle)
	}
	if ex.Env.Lending != nil {
		for _, p := range ex.Env.Lending.Protocols() {
			revs = append(revs, p)
		}
	}
	ex.revs, ex.revProts = revs, prots
	return revs
}

// run dispatches the payload. It returns the logs emitted on success, in
// a slice of their own (nil when there are none) whose topics and data
// come from the executor's arena.
func (ex *Executor) run(ctx BlockCtx, tx *types.Transaction) ([]types.Log, error) {
	ex.logs = ex.logs[:0]
	if err := ex.runPayload(ctx, tx.From, &tx.Payload, tx.Value, tx.To, &ex.logs); err != nil {
		return nil, err
	}
	if len(ex.logs) == 0 {
		return nil, nil
	}
	logs := make([]types.Log, len(ex.logs))
	copy(logs, ex.logs)
	return logs, nil
}

func (ex *Executor) runPayload(ctx BlockCtx, from types.Address, p *types.Payload, value types.Amount, to types.Address, logs *[]types.Log) error {
	st := ex.Env.State
	switch p.Kind {
	case types.TxTransfer:
		amt := p.Amount
		if amt == 0 {
			amt = value
		}
		return st.Transfer(from, to, amt)

	case types.TxTokenTransfer:
		if err := st.TransferToken(p.Token, from, p.Recipient, p.Amount); err != nil {
			return err
		}
		*logs = append(*logs, events.Transfer{Token: p.Token, From: from, To: p.Recipient, Amount: p.Amount}.LogIn(&ex.arena))
		return nil

	case types.TxSwap, types.TxMultiSwap:
		_, err := ex.runSwapPath(from, p, logs)
		return err

	case types.TxLiquidate:
		return ex.runLiquidate(from, p, logs)

	case types.TxFlashLoan:
		return ex.runFlashLoan(ctx, from, p, logs)

	case types.TxOracleUpdate:
		if ex.Env.Oracle == nil {
			return errors.New("evmlite: no oracle configured")
		}
		ex.Env.Oracle.SetPrice(p.OracleToken, p.OraclePrice)
		*logs = append(*logs, events.OracleUpdate{Oracle: ex.Env.Oracle.Addr, Token: p.OracleToken, Price: p.OraclePrice}.LogIn(&ex.arena))
		return nil

	case types.TxMinerPayout:
		for _, e := range p.Payouts {
			if err := st.Transfer(from, e.To, e.Amount); err != nil {
				return err
			}
		}
		return nil

	case types.TxAddLiquidity:
		v, ok := ex.Env.Venues.ByAddr(p.Venue)
		if !ok {
			return fmt.Errorf("evmlite: unknown venue %v", p.Venue.Short())
		}
		pool := v.EnsurePool(p.TokenA, p.TokenB)
		amtA, amtB := p.AmountA, p.AmountB
		if p.TokenA != pool.TokenA { // caller order may differ from sorted order
			amtA, amtB = amtB, amtA
		}
		if err := pool.AddLiquidity(st, from, amtA, amtB); err != nil {
			return err
		}
		ra, rb := pool.Reserves(st)
		*logs = append(*logs, events.Sync{Pool: pool.Addr, ReserveA: ra, ReserveB: rb}.LogIn(&ex.arena))
		return nil

	case types.TxNoop:
		return nil

	default:
		return fmt.Errorf("evmlite: unknown payload kind %v", p.Kind)
	}
}

// runSwapPath executes a (multi-hop) exact-input swap path and returns the
// final output amount.
func (ex *Executor) runSwapPath(from types.Address, p *types.Payload, logs *[]types.Log) (types.Amount, error) {
	if len(p.Hops) == 0 {
		return 0, errors.New("evmlite: swap with no hops")
	}
	st := ex.Env.State
	amt := p.AmountIn
	for i, hop := range p.Hops {
		v, ok := ex.Env.Venues.ByAddr(hop.Venue)
		if !ok {
			return 0, fmt.Errorf("evmlite: unknown venue %v", hop.Venue.Short())
		}
		pool, ok := v.Pool(hop.TokenIn, hop.TokenOut)
		if !ok {
			return 0, dex.ErrNoPool
		}
		res, err := pool.Swap(st, from, hop.TokenIn, amt, 0)
		if err != nil {
			return 0, fmt.Errorf("evmlite: hop %d: %w", i, err)
		}
		*logs = append(*logs,
			events.Transfer{Token: res.TokenIn, From: from, To: pool.Addr, Amount: res.AmountIn}.LogIn(&ex.arena),
			events.Transfer{Token: res.TokenOut, From: pool.Addr, To: from, Amount: res.AmountOut}.LogIn(&ex.arena),
			events.Swap{
				Pool: pool.Addr, Sender: from, Recipient: from,
				TokenIn: res.TokenIn, TokenOut: res.TokenOut,
				AmountIn: res.AmountIn, AmountOut: res.AmountOut,
			}.LogIn(&ex.arena),
		)
		ra, rb := pool.Reserves(st)
		*logs = append(*logs, events.Sync{Pool: pool.Addr, ReserveA: ra, ReserveB: rb}.LogIn(&ex.arena))
		amt = res.AmountOut
	}
	if p.MinOut > 0 && amt < p.MinOut {
		return 0, dex.ErrSlippage
	}
	return amt, nil
}

func (ex *Executor) runLiquidate(from types.Address, p *types.Payload, logs *[]types.Log) error {
	if ex.Env.Lending == nil {
		return errors.New("evmlite: no lending registry configured")
	}
	prot, ok := ex.Env.Lending.ByAddr(p.Protocol)
	if !ok {
		return fmt.Errorf("evmlite: unknown lending protocol %v", p.Protocol.Short())
	}
	res, err := prot.Liquidate(ex.Env.State, from, p.LoanID, p.Repay)
	if err != nil {
		return err
	}
	*logs = append(*logs,
		events.Transfer{Token: res.DebtToken, From: from, To: prot.Addr, Amount: res.DebtRepaid}.LogIn(&ex.arena),
		events.Transfer{Token: res.CollateralToken, From: prot.Addr, To: from, Amount: res.CollateralOut}.LogIn(&ex.arena),
		events.Liquidation{
			Protocol: res.Protocol, Liquidator: res.Liquidator, Borrower: res.Borrower,
			DebtToken: res.DebtToken, CollateralToken: res.CollateralToken,
			DebtRepaid: res.DebtRepaid, CollateralOut: res.CollateralOut,
			Compound: res.Compound,
		}.LogIn(&ex.arena),
	)
	return nil
}

func (ex *Executor) runFlashLoan(ctx BlockCtx, from types.Address, p *types.Payload, logs *[]types.Log) error {
	if ex.Env.Lending == nil {
		return errors.New("evmlite: no lending registry configured")
	}
	prot, ok := ex.Env.Lending.ByAddr(p.Protocol)
	if !ok {
		return fmt.Errorf("evmlite: unknown lending protocol %v", p.Protocol.Short())
	}
	fee, err := prot.FlashFee(p.FlashAmount)
	if err != nil {
		return err
	}
	st := ex.Env.State
	if err := prot.FlashBorrow(st, from, p.FlashToken, p.FlashAmount); err != nil {
		return err
	}
	*logs = append(*logs, events.Transfer{Token: p.FlashToken, From: prot.Addr, To: from, Amount: p.FlashAmount}.LogIn(&ex.arena))
	if p.Inner != nil {
		if err := ex.runPayload(ctx, from, p.Inner, 0, types.ZeroAddress, logs); err != nil {
			return fmt.Errorf("evmlite: flash-loan inner: %w", err)
		}
	}
	if err := prot.FlashRepay(st, from, p.FlashToken, p.FlashAmount, fee); err != nil {
		return fmt.Errorf("evmlite: flash-loan repay: %w", err)
	}
	*logs = append(*logs,
		events.Transfer{Token: p.FlashToken, From: from, To: prot.Addr, Amount: p.FlashAmount + fee}.LogIn(&ex.arena),
		events.FlashLoan{Protocol: prot.Addr, Initiator: from, Token: p.FlashToken, Amount: p.FlashAmount, Fee: fee}.LogIn(&ex.arena),
	)
	return nil
}

// QuotePath returns what executing the exact-input swap path would pay
// out for amountIn, the way searcher bots simulate against their local
// node, without writing any state. It walks the hops over dex.Quote,
// reading reserves through the ones the walk has already moved, so a
// path that revisits a pool sees that pool's moved reserves. It fails
// exactly when execution by a holder of amountIn of the first hop's
// token would: an empty path, an unknown venue or pair, an empty pool, a
// non-positive amount or output, or a hop that does not spend the
// previous hop's output. No pool holds an unregistered token, so a path
// that starts with one fails on an empty pool.
func (ex *Executor) QuotePath(hops []types.SwapHop, amountIn types.Amount) (types.Amount, error) {
	if len(hops) == 0 {
		return 0, errors.New("evmlite: empty path")
	}
	st := ex.Env.State
	var buf [8]moved
	ov := buf[:0]
	held, amt := hops[0].TokenIn, amountIn
	for i, hop := range hops {
		v, ok := ex.Env.Venues.ByAddr(hop.Venue)
		if !ok {
			return 0, fmt.Errorf("evmlite: unknown venue %v", hop.Venue.Short())
		}
		pool, ok := v.Pool(hop.TokenIn, hop.TokenOut)
		if !ok {
			return 0, dex.ErrNoPool
		}
		sin, sout := pool.ReserveSlots(st)
		if hop.TokenIn != pool.TokenA {
			sin, sout = sout, sin
		}
		rin, rout := reserve(st, ov, sin), reserve(st, ov, sout)
		if rin <= 0 || rout <= 0 {
			return 0, fmt.Errorf("evmlite: quote hop %d: %w", i, dex.ErrEmptyPool)
		}
		out := dex.Quote(rin, rout, amt, v.FeeBps) // 0 for a non-positive amt
		if out <= 0 {
			return 0, fmt.Errorf("evmlite: quote hop %d: %w", i, dex.ErrInsufficientInput)
		}
		if hop.TokenIn != held {
			return 0, fmt.Errorf("evmlite: quote hop %d spends %v, not the %v the path holds", i, hop.TokenIn.Short(), held.Short())
		}
		ov = append(ov, moved{sin, rin + amt})
		ov = append(ov, moved{sout, reserve(st, ov, sout) - out})
		held, amt = hop.TokenOut, out
	}
	return amt, nil
}

// moved is a reserve a quote walk has moved: its ledger slot and the
// balance the walk left there.
type moved struct {
	slot state.Slot
	bal  types.Amount
}

// reserve reads a ledger slot through a quote walk's moves, the latest
// move of the slot first.
func reserve(st *state.State, ov []moved, slot state.Slot) types.Amount {
	for i := len(ov) - 1; i >= 0; i-- {
		if ov[i].slot == slot {
			return ov[i].bal
		}
	}
	return st.At(slot)
}
