// Package agents implements the behavioural actors of the simulation:
// ordinary traders whose swaps create MEV opportunities, and the three
// searcher species the paper measures — sandwichers, arbitrageurs and
// liquidators — each with passive and proactive strategies (§2.2.2) and a
// choice of submission channel (public gas auction, Flashbots bundle, or
// another private pool).
//
// Plans are sized by exact forward simulation against a state snapshot:
// the same "simulate against your node, then submit" loop real MEV bots
// run.
package agents

import (
	"math/rand"

	"mevscope/internal/dex"
	"mevscope/internal/evmlite"
	"mevscope/internal/lending"
	"mevscope/internal/state"
	"mevscope/internal/types"
)

// Channel is a transaction submission path.
type Channel uint8

// Submission channels.
const (
	// ChannelPublic gossips through the p2p network (and competes in
	// priority gas auctions).
	ChannelPublic Channel = iota
	// ChannelFlashbots submits a bundle to the Flashbots relay.
	ChannelFlashbots
	// ChannelPrivate submits directly to a non-Flashbots private pool.
	ChannelPrivate
)

// String names the channel.
func (c Channel) String() string {
	switch c {
	case ChannelPublic:
		return "public"
	case ChannelFlashbots:
		return "flashbots"
	case ChannelPrivate:
		return "private"
	default:
		return "unknown"
	}
}

// World bundles the handles agents need to observe and act on the chain
// state.
type World struct {
	Ex      *evmlite.Executor
	St      *state.State
	Venues  *dex.Registry
	Lending *lending.Registry
	Oracle  *lending.Oracle
	WETH    types.Address
	// Tokens are the non-WETH trading tokens; every venue quotes
	// TOKEN/WETH pools.
	Tokens []types.Address
}

// Account is a transacting identity with a nonce counter.
type Account struct {
	Addr  types.Address
	nonce uint64
}

// NewAccount derives a deterministic account.
func NewAccount(namespace string, index uint64) *Account {
	return &Account{Addr: types.DeriveAddress(namespace, index)}
}

// NextNonce returns and consumes the next nonce.
func (a *Account) NextNonce() uint64 {
	n := a.nonce
	a.nonce++
	return n
}

// SkipNonces advances the counter by n, carving out a disjoint nonce range
// when two planners share one address.
func (a *Account) SkipNonces(n uint64) { a.nonce += n }

// GasPricing carries the fee fields appropriate to the current fork.
type GasPricing struct {
	// London switches from GasPrice to FeeCap/TipCap.
	London  bool
	BaseFee types.Amount
	// Price is the legacy gas price, or the priority fee post-London.
	Price types.Amount
}

// Apply writes the fee fields onto a transaction.
func (g GasPricing) Apply(tx *types.Transaction) {
	if g.London {
		tx.TipCap = g.Price
		tx.FeeCap = g.BaseFee*2 + g.Price
	} else {
		tx.GasPrice = g.Price
	}
}

// Trader is a regular user producing exchange traffic.
type Trader struct {
	Account
}

// NewTrader creates trader number i.
func NewTrader(i uint64) *Trader {
	return &Trader{Account: *NewAccount("trader", i)}
}

// SwapTx builds a single-hop swap of sizeWETH into (or out of) a random
// token on a random venue. Buys and sells are balanced so aggregate pool
// flow stays neutral; only WETH→token buys are sandwichable.
func (t *Trader) SwapTx(w *World, rng *rand.Rand, sizeWETH types.Amount, slippageBps int, gas GasPricing) *types.Transaction {
	venues := w.Venues.Venues()
	v := venues[rng.Intn(len(venues))]
	token := w.Tokens[rng.Intn(len(w.Tokens))]
	buy := rng.Intn(2) == 0

	pool0, ok0 := v.Pool(w.WETH, token)
	if ok0 {
		// Traders size orders to the venue's depth: single swaps beyond
		// ~0.4 % of the reserve get routed elsewhere in reality.
		if maxSize := pool0.Reserve(w.St, w.WETH) / 260; sizeWETH > maxSize && maxSize > 0 {
			sizeWETH = maxSize
		}
	}
	var hop types.SwapHop
	var amountIn types.Amount
	if buy {
		hop = types.SwapHop{Venue: v.Addr, TokenIn: w.WETH, TokenOut: token}
		amountIn = sizeWETH
	} else {
		hop = types.SwapHop{Venue: v.Addr, TokenIn: token, TokenOut: w.WETH}
		// Convert the WETH-denominated size into token units at spot.
		pool, ok := v.Pool(w.WETH, token)
		if !ok {
			return nil
		}
		price := pool.SpotPrice(w.St, w.WETH) // token per WETH
		if price <= 0 {
			return nil
		}
		amountIn = types.Amount(float64(sizeWETH) * price)
	}
	if amountIn <= 0 {
		return nil
	}
	var minOut types.Amount
	if slippageBps > 0 {
		if quote, err := w.Ex.QuotePath([]types.SwapHop{hop}, amountIn); err == nil {
			minOut = quote.MulDiv(types.Amount(10000-slippageBps), 10000)
		}
	}
	tx := &types.Transaction{
		Nonce: t.NextNonce(), From: t.Addr,
		GasLimit: evmlite.GasSwapBase + evmlite.GasSwapPerHop,
		Payload: types.Payload{
			Kind: types.TxSwap, Hops: []types.SwapHop{hop},
			AmountIn: amountIn, MinOut: minOut,
		},
	}
	gas.Apply(tx)
	return tx
}

// Searcher is an MEV extractor identity with trading capital.
type Searcher struct {
	Account
	// Skill scales how well the searcher sizes attacks (0..1].
	Skill float64
}

// NewSearcher creates searcher number i.
func NewSearcher(i uint64, skill float64) *Searcher {
	return &Searcher{Account: *NewAccount("searcher", i), Skill: skill}
}

// NewSearcherAt creates a searcher bound to an existing address — how the
// simulation models miners extracting MEV from their own coinbase account.
func NewSearcherAt(addr types.Address, skill float64) *Searcher {
	return &Searcher{Account: Account{Addr: addr}, Skill: skill}
}

// Fund seeds the searcher with gas ether, WETH capital and token floats.
func (s *Searcher) Fund(w *World, gasEth, capitalWETH types.Amount) {
	w.St.Mint(s.Addr, gasEth)
	if capitalWETH > 0 {
		mustMintToken(w.St, w.WETH, s.Addr, capitalWETH)
	}
	for _, tok := range w.Tokens {
		mustMintToken(w.St, tok, s.Addr, 200_000*types.Ether)
	}
}

func mustMintToken(st *state.State, token, holder types.Address, amt types.Amount) {
	if err := st.MintToken(token, holder, amt); err != nil {
		panic("agents: " + err.Error())
	}
}

// SandwichPlan is a sized sandwich attack against one pending victim swap.
type SandwichPlan struct {
	Victim *types.Transaction
	// Venue and tokens of the victim's swap.
	Venue    types.Address
	TokenIn  types.Address // WETH
	TokenOut types.Address
	// AttackIn is the WETH the attacker commits in the frontrun.
	AttackIn types.Amount
	// ExpectedGross is the simulated WETH profit before fees and tips.
	ExpectedGross types.Amount
}

// VictimSwap extracts the sandwichable shape from a pending transaction:
// a single-hop WETH→token buy. Returns ok=false otherwise.
func VictimSwap(w *World, tx *types.Transaction) (types.SwapHop, types.Amount, bool) {
	p := &tx.Payload
	if p.Kind != types.TxSwap || len(p.Hops) != 1 {
		return types.SwapHop{}, 0, false
	}
	hop := p.Hops[0]
	if hop.TokenIn != w.WETH {
		return types.SwapHop{}, 0, false
	}
	return hop, p.AmountIn, true
}

// PlanSandwich sizes a sandwich against the victim by simulating
// front-victim-back against a snapshot, trying several attack sizes and
// keeping the best. ok is false when no profitable size exists or the
// victim is not sandwichable.
func (s *Searcher) PlanSandwich(w *World, victim *types.Transaction) (SandwichPlan, bool) {
	hop, victimIn, ok := VictimSwap(w, victim)
	if !ok {
		return SandwichPlan{}, false
	}
	venue, ok := w.Venues.ByAddr(hop.Venue)
	if !ok {
		return SandwichPlan{}, false
	}
	pool, ok := venue.Pool(hop.TokenIn, hop.TokenOut)
	if !ok {
		return SandwichPlan{}, false
	}
	capital := w.St.TokenBalance(w.WETH, s.Addr)

	candidates := []types.Amount{victimIn / 4, victimIn / 2, victimIn, victimIn * 2}
	best := SandwichPlan{
		Victim: victim, Venue: hop.Venue,
		TokenIn: hop.TokenIn, TokenOut: hop.TokenOut,
	}
	found := false
	for _, x := range candidates {
		x = types.Amount(float64(x) * s.Skill)
		if x <= 0 || x > capital {
			continue
		}
		gross, ok := simulateSandwich(w, pool, s.Addr, victim, x)
		if !ok {
			continue
		}
		if gross > best.ExpectedGross {
			best.AttackIn = x
			best.ExpectedGross = gross
			found = true
		}
	}
	return best, found
}

// simulateSandwich plays front(x) → victim → back on a snapshot and
// returns the attacker's WETH delta. The victim's own slippage guard is
// honoured: if the victim swap would revert the sandwich is infeasible.
func simulateSandwich(w *World, pool *dex.Pool, attacker types.Address, victim *types.Transaction, x types.Amount) (types.Amount, bool) {
	st := w.St
	st.Snapshot()
	defer st.Revert()

	front, err := pool.Swap(st, attacker, w.WETH, x, 0)
	if err != nil {
		return 0, false
	}
	vp := &victim.Payload
	if _, err := pool.Swap(st, victim.From, w.WETH, vp.AmountIn, vp.MinOut); err != nil {
		return 0, false
	}
	back, err := pool.Swap(st, attacker, front.TokenOut, front.AmountOut, 0)
	if err != nil {
		return 0, false
	}
	return back.AmountOut - x, true
}

// SandwichTxs materializes the plan into front and back transactions.
// The front outbids the victim's effective price by margin; the back
// undercuts it so default fee ordering places it after the victim —
// exactly the Torres et al. heuristic detectors look for. tipTotal (paid
// via coinbase transfer, Flashbots-style) is attached to the back
// transaction.
func (s *Searcher) SandwichTxs(w *World, plan SandwichPlan, gas GasPricing, margin types.Amount, tipTotal types.Amount) (front, back *types.Transaction) {
	victimPrice := plan.Victim.EffectiveGasPrice(gas.BaseFee)
	frontGas := gas
	frontGas.Price = victimPrice + margin - gas.BaseFee
	if !gas.London {
		frontGas.Price = victimPrice + margin
	}
	backGas := gas
	backGas.Price = victimPrice - margin - gas.BaseFee
	if !gas.London {
		backGas.Price = victimPrice - margin
	}
	if backGas.Price < 1 {
		backGas.Price = 1
	}
	front = &types.Transaction{
		Nonce: s.NextNonce(), From: s.Addr,
		GasLimit: evmlite.GasSwapBase + evmlite.GasSwapPerHop,
		Payload: types.Payload{
			Kind:     types.TxSwap,
			Hops:     []types.SwapHop{{Venue: plan.Venue, TokenIn: plan.TokenIn, TokenOut: plan.TokenOut}},
			AmountIn: plan.AttackIn,
		},
	}
	frontGas.Apply(front)
	back = &types.Transaction{
		Nonce: s.NextNonce(), From: s.Addr,
		GasLimit:    evmlite.GasSwapBase + evmlite.GasSwapPerHop,
		CoinbaseTip: tipTotal,
		Payload: types.Payload{
			Kind: types.TxSwap,
			Hops: []types.SwapHop{{Venue: plan.Venue, TokenIn: plan.TokenOut, TokenOut: plan.TokenIn}},
			// Sell-everything marker: the executor swaps AmountIn exactly,
			// so the planner precomputes the holding via simulation.
			AmountIn: s.frontOutput(w, plan),
		},
	}
	backGas.Apply(back)
	return front, back
}

// frontOutput simulates just the frontrun to learn how many tokens the
// back transaction must sell.
func (s *Searcher) frontOutput(w *World, plan SandwichPlan) types.Amount {
	venue, _ := w.Venues.ByAddr(plan.Venue)
	pool, _ := venue.Pool(plan.TokenIn, plan.TokenOut)
	out, err := pool.AmountOut(w.St, plan.TokenIn, plan.AttackIn)
	if err != nil {
		return 0
	}
	return out
}

// ArbPlan is a sized cross-venue arbitrage loop starting and ending in
// WETH.
type ArbPlan struct {
	Hops          []types.SwapHop
	AmountIn      types.Amount
	ExpectedGross types.Amount
}

// FindArbPlans scans every token across venue pairs for closed-loop price
// gaps and returns profitable plans, best first, at most maxPlans. This is
// the passive strategy; the proactive "copy a pending arb with a higher
// fee" strategy is CopyArb.
func FindArbPlans(w *World, maxPlans int, capital types.Amount) []ArbPlan {
	var plans []ArbPlan
	venues := w.Venues.Venues()
	// Quoting writes no state, so each venue's pool and spot prices for a
	// token hold for the whole venue×venue scan of that token.
	pools := make([]*dex.Pool, len(venues))
	sell := make([]float64, len(venues)) // WETH per token
	for _, token := range w.Tokens {
		for i, v := range venues {
			pools[i], _ = v.Pool(w.WETH, token)
			if pools[i] != nil {
				sell[i] = pools[i].SpotPrice(w.St, token)
			}
		}
		for i, pa := range pools {
			if pa == nil {
				continue
			}
			buyPrice := pa.SpotPrice(w.St, w.WETH) // token per WETH on A
			for j, pb := range pools {
				if i == j || pb == nil {
					continue
				}
				// Cheap pre-filter on spot prices before exact sizing.
				if buyPrice <= 0 || sell[j] <= 0 || buyPrice*sell[j] <= 1.008 {
					continue
				}
				plan, ok := sizeArb(w, venues[i].Addr, venues[j].Addr, token, capital)
				if ok {
					plans = append(plans, plan)
				}
			}
		}
	}
	// Insertion sort by gross (plans lists are tiny).
	for i := 1; i < len(plans); i++ {
		for j := i; j > 0 && plans[j].ExpectedGross > plans[j-1].ExpectedGross; j-- {
			plans[j], plans[j-1] = plans[j-1], plans[j]
		}
	}
	if len(plans) > maxPlans {
		plans = plans[:maxPlans]
	}
	return plans
}

func sizeArb(w *World, venueA, venueB types.Address, token types.Address, capital types.Amount) (ArbPlan, bool) {
	hops := [2]types.SwapHop{
		{Venue: venueA, TokenIn: w.WETH, TokenOut: token},
		{Venue: venueB, TokenIn: token, TokenOut: w.WETH},
	}
	var best ArbPlan
	found := false
	for _, x := range [...]types.Amount{types.Ether, 4 * types.Ether, 12 * types.Ether, 30 * types.Ether} {
		if x > capital {
			break
		}
		out, err := w.Ex.QuotePath(hops[:], x)
		if err != nil {
			continue
		}
		gross := out - x
		if gross > best.ExpectedGross {
			best.AmountIn, best.ExpectedGross = x, gross
			found = true
		}
	}
	if found {
		best.Hops = append([]types.SwapHop(nil), hops[:]...)
	}
	return best, found
}

// ArbTx materializes an arbitrage plan. With useFlashLoan the capital is
// borrowed from protocol inside the same transaction (Wang et al.'s
// flash-loan pattern), so only gas money is needed.
func (s *Searcher) ArbTx(w *World, plan ArbPlan, gas GasPricing, tip types.Amount, useFlashLoan bool, protocol types.Address) *types.Transaction {
	tx := &types.Transaction{
		Nonce: s.NextNonce(), From: s.Addr,
		CoinbaseTip: tip,
	}
	inner := types.Payload{
		Kind: types.TxMultiSwap, Hops: plan.Hops,
		AmountIn: plan.AmountIn, MinOut: plan.AmountIn, // revert if unprofitable
	}
	if useFlashLoan {
		tx.Payload = types.Payload{
			Kind:        types.TxFlashLoan,
			Protocol:    protocol,
			FlashToken:  plan.Hops[0].TokenIn,
			FlashAmount: plan.AmountIn,
			Inner:       &inner,
		}
	} else {
		tx.Payload = inner
	}
	tx.GasLimit = evmlite.GasFor(&tx.Payload)
	gas.Apply(tx)
	return tx
}

// CopyArb implements the proactive strategy of §2.2.2: duplicate a pending
// arbitrage transaction and outbid its fee so the copy frontruns the
// original.
func (s *Searcher) CopyArb(pending *types.Transaction, gas GasPricing, margin types.Amount) (*types.Transaction, bool) {
	p := pending.Payload
	if p.Kind != types.TxMultiSwap || len(p.Hops) < 2 {
		return nil, false
	}
	gas.Price = pending.EffectiveGasPrice(gas.BaseFee) + margin - gas.BaseFee
	if !gas.London {
		gas.Price = pending.EffectiveGasPrice(0) + margin
	}
	tx := &types.Transaction{
		Nonce: s.NextNonce(), From: s.Addr,
		GasLimit: pending.GasLimit,
		Payload:  p, // identical action, different submitter
	}
	gas.Apply(tx)
	return tx, true
}

// LiqPlan is a sized liquidation opportunity.
type LiqPlan struct {
	Protocol      types.Address
	LoanID        uint64
	Repay         types.Amount
	DebtToken     types.Address
	ExpectedGross types.Amount // ETH value of spread at oracle prices
}

// FindLiquidations scans all lending protocols for unhealthy loans — the
// passive strategy of §2.2.2 — returning sized plans, best first.
func FindLiquidations(w *World) []LiqPlan {
	var plans []LiqPlan
	for _, prot := range w.Lending.Protocols() {
		for _, id := range prot.LiquidatableLoans() {
			loan, ok := prot.Loan(id)
			if !ok {
				continue
			}
			repay, err := prot.MaxRepay(id)
			if err != nil || repay <= 0 {
				continue
			}
			repayVal, err := w.Oracle.Value(loan.DebtToken, repay)
			if err != nil {
				continue
			}
			gross := repayVal.MulDiv(types.Amount(prot.LiqBonusBps), 10000)
			plans = append(plans, LiqPlan{
				Protocol: prot.Addr, LoanID: id, Repay: repay,
				DebtToken: loan.DebtToken, ExpectedGross: gross,
			})
		}
	}
	for i := 1; i < len(plans); i++ {
		for j := i; j > 0 && plans[j].ExpectedGross > plans[j-1].ExpectedGross; j-- {
			plans[j], plans[j-1] = plans[j-1], plans[j]
		}
	}
	return plans
}

// LiqTx materializes a liquidation plan, optionally flash-borrowing the
// repay amount.
func (s *Searcher) LiqTx(plan LiqPlan, gas GasPricing, tip types.Amount, useFlashLoan bool, flashProtocol types.Address) *types.Transaction {
	tx := &types.Transaction{
		Nonce: s.NextNonce(), From: s.Addr,
		CoinbaseTip: tip,
	}
	inner := types.Payload{
		Kind: types.TxLiquidate, Protocol: plan.Protocol,
		LoanID: plan.LoanID, Repay: plan.Repay,
	}
	if useFlashLoan {
		tx.Payload = types.Payload{
			Kind:        types.TxFlashLoan,
			Protocol:    flashProtocol,
			FlashToken:  plan.DebtToken,
			FlashAmount: plan.Repay,
			Inner:       &inner,
		}
	} else {
		tx.Payload = inner
	}
	tx.GasLimit = evmlite.GasFor(&tx.Payload)
	gas.Apply(tx)
	return tx
}

// Borrower opens loans that later become liquidation fodder.
type Borrower struct {
	Account
}

// NewBorrower creates borrower number i.
func NewBorrower(i uint64) *Borrower {
	return &Borrower{Account: *NewAccount("borrower", i)}
}

// OpenRiskyLoan opens a loan close to the liquidation threshold so modest
// oracle moves make it unhealthy. Collateral is WETH, debt a random token.
func (b *Borrower) OpenRiskyLoan(w *World, rng *rand.Rand, prot *lending.Protocol, collWETH types.Amount) (*lending.Loan, error) {
	token := w.Tokens[rng.Intn(len(w.Tokens))]
	mustMintToken(w.St, w.WETH, b.Addr, collWETH)
	collVal, err := w.Oracle.Value(w.WETH, collWETH)
	if err != nil {
		return nil, err
	}
	// Borrow at ~92% of the liquidation threshold.
	debtVal := collVal.MulDiv(types.Amount(prot.LiqThresholdBps), 10000).MulDiv(92, 100)
	price, ok := w.Oracle.Price(token)
	if !ok || price == 0 {
		return nil, lending.ErrNoPrice
	}
	debtAmt := debtVal.MulDiv(types.Ether, price)
	return prot.OpenLoan(w.St, b.Addr, w.WETH, collWETH, token, debtAmt)
}
