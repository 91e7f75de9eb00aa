package profit

import (
	"testing"

	"mevscope/internal/chain"
	"mevscope/internal/core/detect"
	"mevscope/internal/flashbots"
	"mevscope/internal/prices"
	"mevscope/internal/types"
)

var (
	weth = types.DeriveAddress("tok", 0)
	dai  = types.DeriveAddress("tok", 1)
)

// world builds a chain with one block containing receipts for given txs.
func world(t *testing.T, txs []*types.Transaction, rcpts []*types.Receipt) *chain.Chain {
	t.Helper()
	c := chain.New(types.DefaultTimeline(100))
	b := &types.Block{Header: types.Header{Number: c.NextNumber(), Time: types.Month(12).Date()}, Txs: txs, Receipts: rcpts}
	for i, r := range rcpts {
		r.TxIndex = i
	}
	b.Seal()
	if err := c.Append(b); err != nil {
		t.Fatal(err)
	}
	return c
}

func priceSeries() *prices.Series {
	s := prices.NewSeries()
	s.Record(dai, 1, types.Ether/2000) // 2000 DAI per ETH from block 1
	return s
}

func TestKindString(t *testing.T) {
	if KindSandwich.String() != "sandwich" || KindArbitrage.String() != "arbitrage" || KindLiquidation.String() != "liquidation" {
		t.Error("names")
	}
	if Kind(9).String() != "unknown" {
		t.Error("unknown")
	}
}

func TestSandwichProfit(t *testing.T) {
	attacker := types.DeriveAddress("attacker", 1)
	front := &types.Transaction{Nonce: 1, From: attacker}
	back := &types.Transaction{Nonce: 2, From: attacker}
	victim := &types.Transaction{Nonce: 1, From: types.DeriveAddress("v", 1)}
	rf := &types.Receipt{TxHash: front.Hash(), Status: types.StatusSuccess, GasUsed: 100_000, EffectiveGasPrice: 10 * types.Gwei}
	rb := &types.Receipt{TxHash: back.Hash(), Status: types.StatusSuccess, GasUsed: 100_000, EffectiveGasPrice: 10 * types.Gwei, CoinbaseTransfer: types.Milliether}
	rv := &types.Receipt{TxHash: victim.Hash(), Status: types.StatusSuccess}
	c := world(t, []*types.Transaction{front, victim, back}, []*types.Receipt{rf, rv, rb})

	fbset := map[types.Hash]flashbots.BundleType{back.Hash(): flashbots.TypeFlashbots}
	comp := New(c, priceSeries(), weth, fbset)
	s := detect.Sandwich{
		Block: c.Head().Header.Number, Month: 12,
		Attacker: attacker, FrontTx: front.Hash(), VictimTx: victim.Hash(), BackTx: back.Hash(),
		FrontIn: 10 * types.Ether, BackOut: 10*types.Ether + 10*types.Milliether,
	}
	rec, err := comp.Sandwich(s)
	if err != nil {
		t.Fatal(err)
	}
	if rec.GainETH != 10*types.Milliether {
		t.Errorf("gain = %v", rec.GainETH)
	}
	wantCost := types.Amount(200_000)*10*types.Gwei + types.Milliether
	if rec.CostETH != wantCost {
		t.Errorf("cost = %v want %v", rec.CostETH, wantCost)
	}
	if rec.NetETH != rec.GainETH-wantCost {
		t.Error("net")
	}
	if !rec.ViaFlashbots {
		t.Error("flashbots flag (back tx in set)")
	}
}

// TestTrackerMatchesResolveAll: resolving a sweep incrementally — as
// detections trickle in block by block — must yield exactly the records
// (and order) of a one-shot batch ResolveAll, including skipping
// unresolvable detections.
func TestTrackerMatchesResolveAll(t *testing.T) {
	attacker := types.DeriveAddress("attacker", 1)
	front := &types.Transaction{Nonce: 1, From: attacker}
	back := &types.Transaction{Nonce: 2, From: attacker}
	victim := &types.Transaction{Nonce: 1, From: types.DeriveAddress("v", 1)}
	arbTx := &types.Transaction{Nonce: 3, From: attacker}
	rf := &types.Receipt{TxHash: front.Hash(), Status: types.StatusSuccess, GasUsed: 100_000, EffectiveGasPrice: 10 * types.Gwei}
	rb := &types.Receipt{TxHash: back.Hash(), Status: types.StatusSuccess, GasUsed: 100_000, EffectiveGasPrice: 10 * types.Gwei}
	rv := &types.Receipt{TxHash: victim.Hash(), Status: types.StatusSuccess}
	ra := &types.Receipt{TxHash: arbTx.Hash(), Status: types.StatusSuccess, GasUsed: 300_000, EffectiveGasPrice: types.Gwei}
	c := world(t, []*types.Transaction{front, victim, back, arbTx}, []*types.Receipt{rf, rv, rb, ra})
	comp := New(c, priceSeries(), weth, map[types.Hash]flashbots.BundleType{back.Hash(): flashbots.TypeFlashbots})

	n := c.Head().Header.Number
	sweep := &detect.Result{}
	tracker := NewTracker(comp)

	// Block 1 worth of detections: a sandwich.
	sweep.Sandwiches = append(sweep.Sandwiches, detect.Sandwich{
		Block: n, Month: 12, Attacker: attacker,
		FrontTx: front.Hash(), VictimTx: victim.Hash(), BackTx: back.Hash(),
		FrontIn: 10 * types.Ether, BackOut: 10*types.Ether + 10*types.Milliether,
	})
	tracker.Sync(sweep)
	if tracker.Resolved() != 1 {
		t.Fatalf("resolved = %d after first sync", tracker.Resolved())
	}

	// Block 2 worth: a DAI arbitrage, plus one with an unpriced token that
	// batch resolution also skips.
	sweep.Arbitrages = append(sweep.Arbitrages,
		detect.Arbitrage{Block: n, Month: 12, Extractor: attacker, Tx: arbTx.Hash(),
			Token: dai, AmountIn: 100_000 * types.Ether, AmountOut: 104_000 * types.Ether},
		detect.Arbitrage{Block: n, Month: 12, Extractor: attacker, Tx: arbTx.Hash(),
			Token: types.DeriveAddress("tok", 9), AmountIn: 1, AmountOut: 2},
	)
	tracker.Sync(sweep)

	inc := tracker.Records()
	batch := comp.ResolveAll(sweep)
	if len(inc) != len(batch) {
		t.Fatalf("incremental %d records, batch %d", len(inc), len(batch))
	}
	for i := range batch {
		if inc[i].Kind != batch[i].Kind || inc[i].NetETH != batch[i].NetETH ||
			inc[i].GainETH != batch[i].GainETH || inc[i].ViaFlashbots != batch[i].ViaFlashbots {
			t.Fatalf("record %d differs: %+v vs %+v", i, inc[i], batch[i])
		}
	}
	// Parallel resolution over the same sweep agrees too.
	par := comp.ResolveAllParallelSpan(sweep, 4, nil)
	if len(par) != len(inc) {
		t.Fatalf("parallel %d records, incremental %d", len(par), len(inc))
	}
	// A redundant sync is a no-op.
	tracker.Sync(sweep)
	if tracker.Resolved() != len(inc) {
		t.Error("redundant sync changed the record set")
	}
}

func TestArbitrageProfitTokenConversion(t *testing.T) {
	arber := types.DeriveAddress("arber", 1)
	tx := &types.Transaction{Nonce: 1, From: arber}
	r := &types.Receipt{TxHash: tx.Hash(), Status: types.StatusSuccess, GasUsed: 300_000, EffectiveGasPrice: types.Gwei}
	c := world(t, []*types.Transaction{tx}, []*types.Receipt{r})
	comp := New(c, priceSeries(), weth, nil)
	a := detect.Arbitrage{
		Block: c.Head().Header.Number, Month: 12, Extractor: arber, Tx: tx.Hash(),
		Token: dai, AmountIn: 100_000 * types.Ether, AmountOut: 104_000 * types.Ether,
	}
	rec, err := comp.Arbitrage(a)
	if err != nil {
		t.Fatal(err)
	}
	// 4000 DAI gain = 2 ETH.
	if rec.GainETH != 2*types.Ether {
		t.Errorf("gain = %v", rec.GainETH)
	}
	if rec.ViaFlashbots || rec.ViaFlashLoan {
		t.Error("flags")
	}
}

func TestArbitrageFlashFeeCost(t *testing.T) {
	arber := types.DeriveAddress("arber", 1)
	tx := &types.Transaction{Nonce: 1, From: arber}
	r := &types.Receipt{TxHash: tx.Hash(), Status: types.StatusSuccess, GasUsed: 300_000, EffectiveGasPrice: types.Gwei}
	c := world(t, []*types.Transaction{tx}, []*types.Receipt{r})
	comp := New(c, priceSeries(), weth, nil)
	a := detect.Arbitrage{
		Block: c.Head().Header.Number, Extractor: arber, Tx: tx.Hash(),
		Token: dai, AmountIn: 100_000 * types.Ether, AmountOut: 104_000 * types.Ether,
		FlashLoan: true, FlashFee: 2_000 * types.Ether, // 1 ETH worth
	}
	rec, err := comp.Arbitrage(a)
	if err != nil {
		t.Fatal(err)
	}
	wantCost := types.Amount(300_000)*types.Gwei + types.Ether
	if rec.CostETH != wantCost {
		t.Errorf("cost = %v want %v", rec.CostETH, wantCost)
	}
	if !rec.ViaFlashLoan {
		t.Error("flash flag")
	}
}

func TestLiquidationProfit(t *testing.T) {
	liq := types.DeriveAddress("liq", 1)
	tx := &types.Transaction{Nonce: 1, From: liq}
	r := &types.Receipt{TxHash: tx.Hash(), Status: types.StatusSuccess, GasUsed: 400_000, EffectiveGasPrice: types.Gwei}
	c := world(t, []*types.Transaction{tx}, []*types.Receipt{r})
	comp := New(c, priceSeries(), weth, nil)
	l := detect.Liquidation{
		Block: c.Head().Header.Number, Liquidator: liq, Tx: tx.Hash(),
		DebtToken: dai, CollateralToken: weth,
		DebtRepaid: 2_000 * types.Ether, CollateralOut: types.Ether + 50*types.Milliether,
	}
	rec, err := comp.Liquidation(l)
	if err != nil {
		t.Fatal(err)
	}
	if rec.GainETH != types.Ether+50*types.Milliether {
		t.Errorf("gain = %v", rec.GainETH)
	}
	// cost = fee + repaid debt (1 ETH worth).
	wantCost := types.Amount(400_000)*types.Gwei + types.Ether
	if rec.CostETH != wantCost {
		t.Errorf("cost = %v", rec.CostETH)
	}
	if rec.NetETH <= 0 {
		t.Error("fixed spread should net positive")
	}
}

func TestMissingPriceFailsGracefully(t *testing.T) {
	arber := types.DeriveAddress("arber", 1)
	tx := &types.Transaction{Nonce: 1, From: arber}
	r := &types.Receipt{TxHash: tx.Hash(), Status: types.StatusSuccess}
	c := world(t, []*types.Transaction{tx}, []*types.Receipt{r})
	comp := New(c, prices.NewSeries(), weth, nil) // empty series
	a := detect.Arbitrage{Block: c.Head().Header.Number, Tx: tx.Hash(), Token: dai, AmountIn: 1, AmountOut: 2}
	if _, err := comp.Arbitrage(a); err == nil {
		t.Error("unknown token price should error")
	}
	// ResolveAll skips it silently.
	res := &detect.Result{Arbitrages: []detect.Arbitrage{a}}
	if got := comp.ResolveAll(res); len(got) != 0 {
		t.Error("unresolvable records should be skipped")
	}
}

func TestMissingReceiptErrors(t *testing.T) {
	c := world(t, nil, nil)
	comp := New(c, priceSeries(), weth, nil)
	s := detect.Sandwich{Block: c.Head().Header.Number, FrontTx: types.Hash{1}, BackTx: types.Hash{2}}
	if _, err := comp.Sandwich(s); err == nil {
		t.Error("missing receipts should error")
	}
}
