package evmlite

import (
	"strings"
	"testing"

	"mevscope/internal/dex"
	"mevscope/internal/events"
	"mevscope/internal/lending"
	"mevscope/internal/state"
	"mevscope/internal/types"
)

type world struct {
	ex    *Executor
	st    *state.State
	uni   *dex.Venue
	sushi *dex.Venue
	aave  *lending.Protocol
	weth  types.Address
	dai   types.Address
	miner types.Address
}

func newWorld(t *testing.T) *world {
	t.Helper()
	st := state.New()
	weth := st.RegisterToken("WETH", 18)
	dai := st.RegisterToken("DAI", 18)

	venues := dex.NewRegistry()
	uni := dex.NewVenue("UniswapV2", 30)
	sushi := dex.NewVenue("SushiSwap", 30)
	venues.Add(uni)
	venues.Add(sushi)

	lp := types.DeriveAddress("lp", 0)
	st.MintToken(weth, lp, 4_000*types.Ether)
	st.MintToken(dai, lp, 8_000_000*types.Ether)
	if err := uni.EnsurePool(weth, dai).AddLiquidity(st, lp, 2_000*types.Ether, 4_000_000*types.Ether); err != nil {
		t.Fatal(err)
	}
	if err := sushi.EnsurePool(weth, dai).AddLiquidity(st, lp, 2_000*types.Ether, 4_000_000*types.Ether); err != nil {
		t.Fatal(err)
	}

	oracle := lending.NewOracle("feed")
	oracle.SetPrice(weth, types.Ether)
	oracle.SetPrice(dai, types.Ether/2000)
	lreg := lending.NewRegistry()
	aave := lending.New(lending.Config{Name: "AaveV2", LiqThresholdBps: 8000, LiqBonusBps: 500, CloseFactorBps: 5000, FlashLoanFeeBps: 9}, oracle)
	lreg.Add(aave)
	if err := aave.SeedReserves(st, dai, 50_000_000*types.Ether); err != nil {
		t.Fatal(err)
	}
	if err := aave.SeedReserves(st, weth, 10_000*types.Ether); err != nil {
		t.Fatal(err)
	}

	ex := New(Env{State: st, Venues: venues, Lending: lreg, Oracle: oracle, WETH: weth})
	return &world{ex: ex, st: st, uni: uni, sushi: sushi, aave: aave, weth: weth, dai: dai, miner: types.DeriveAddress("miner", 0)}
}

func (w *world) ctx() BlockCtx { return BlockCtx{Number: 1, Miner: w.miner} }

func (w *world) fund(a types.Address, eth types.Amount) {
	w.st.Mint(a, eth)
}

func countLogs(logs []types.Log, sig types.Hash) int {
	n := 0
	for _, l := range logs {
		if len(l.Topics) > 0 && l.Topics[0] == sig {
			n++
		}
	}
	return n
}

func TestPlainTransfer(t *testing.T) {
	w := newWorld(t)
	alice := types.DeriveAddress("alice", 0)
	bob := types.DeriveAddress("bob", 0)
	w.fund(alice, 10*types.Ether)
	tx := &types.Transaction{
		From: alice, To: bob, Value: types.Ether,
		GasLimit: GasTransfer, GasPrice: 50 * types.Gwei,
		Payload: types.Payload{Kind: types.TxTransfer},
	}
	rcpt, err := w.ex.Apply(w.ctx(), tx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rcpt.Status != types.StatusSuccess {
		t.Fatal("transfer failed")
	}
	if w.st.Balance(bob) != types.Ether {
		t.Error("value not delivered")
	}
	wantFee := types.Amount(GasTransfer) * 50 * types.Gwei
	if w.st.Balance(alice) != 10*types.Ether-types.Ether-wantFee {
		t.Errorf("sender balance = %v", w.st.Balance(alice))
	}
	if w.st.Balance(w.miner) != wantFee {
		t.Error("miner should earn the whole legacy fee")
	}
}

func TestValidateRejections(t *testing.T) {
	w := newWorld(t)
	alice := types.DeriveAddress("alice", 0)
	w.fund(alice, types.Ether)
	base := &types.Transaction{
		From: alice, To: alice, GasLimit: GasTransfer, GasPrice: 50 * types.Gwei,
		Payload: types.Payload{Kind: types.TxTransfer, Amount: 1},
	}
	// gas limit too low
	lowGas := *base
	lowGas.GasLimit = 1000
	if err := w.ex.Validate(&lowGas, 0); err == nil || !strings.Contains(err.Error(), "gas limit") {
		t.Errorf("lowGas: %v", err)
	}
	// fee cap below base fee (post-London)
	lowCap := *base
	lowCap.GasPrice = 0
	lowCap.FeeCap, lowCap.TipCap = 10*types.Gwei, types.Gwei
	if err := w.ex.Validate(&lowCap, 30*types.Gwei); err == nil || !strings.Contains(err.Error(), "fee cap") {
		t.Errorf("lowCap: %v", err)
	}
	// cannot pay
	broke := *base
	broke.From = types.DeriveAddress("broke", 0)
	if err := w.ex.Validate(&broke, 0); err == nil || !strings.Contains(err.Error(), "cover gas fee") {
		t.Errorf("broke: %v", err)
	}
	// Apply refuses invalid txs outright.
	if _, err := w.ex.Apply(w.ctx(), &broke, 0); err == nil {
		t.Error("Apply should reject invalid tx")
	}
}

func TestLondonBurnsBaseFee(t *testing.T) {
	w := newWorld(t)
	alice := types.DeriveAddress("alice", 0)
	w.fund(alice, 10*types.Ether)
	tx := &types.Transaction{
		From: alice, To: alice, GasLimit: GasTransfer,
		FeeCap: 100 * types.Gwei, TipCap: 2 * types.Gwei,
		Payload: types.Payload{Kind: types.TxTransfer, Amount: 1},
	}
	ctx := BlockCtx{Number: 1, BaseFee: 30 * types.Gwei, Miner: w.miner}
	total := w.st.TotalEther()
	rcpt, err := w.ex.Apply(ctx, tx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rcpt.EffectiveGasPrice != 32*types.Gwei {
		t.Errorf("effective price = %v", rcpt.EffectiveGasPrice)
	}
	wantTip := types.Amount(GasTransfer) * 2 * types.Gwei
	if w.st.Balance(w.miner) != wantTip {
		t.Errorf("miner tip = %v want %v", w.st.Balance(w.miner), wantTip)
	}
	wantBurn := types.Amount(GasTransfer) * 30 * types.Gwei
	if got := total - w.st.TotalEther(); got != wantBurn {
		t.Errorf("burned = %v want %v", got, wantBurn)
	}
}

func TestTokenTransferEmitsLog(t *testing.T) {
	w := newWorld(t)
	alice := types.DeriveAddress("alice", 0)
	bob := types.DeriveAddress("bob", 0)
	w.fund(alice, types.Ether)
	w.st.MintToken(w.dai, alice, 500)
	tx := &types.Transaction{
		From: alice, GasLimit: GasTokenTransfer, GasPrice: types.Gwei,
		Payload: types.Payload{Kind: types.TxTokenTransfer, Token: w.dai, Recipient: bob, Amount: 500},
	}
	rcpt, err := w.ex.Apply(w.ctx(), tx, 0)
	if err != nil || rcpt.Status != types.StatusSuccess {
		t.Fatalf("apply: %v %v", rcpt, err)
	}
	if countLogs(rcpt.Logs, events.SigTransfer) != 1 {
		t.Error("want one Transfer log")
	}
	tr, ok := events.DecodeTransfer(rcpt.Logs[0])
	if !ok || tr.Amount != 500 || tr.To != bob {
		t.Errorf("decoded = %+v", tr)
	}
}

func TestSwapEmitsFullEventSet(t *testing.T) {
	w := newWorld(t)
	alice := types.DeriveAddress("alice", 0)
	w.fund(alice, types.Ether)
	w.st.MintToken(w.weth, alice, 10*types.Ether)
	tx := &types.Transaction{
		From: alice, GasLimit: GasSwapBase + GasSwapPerHop, GasPrice: types.Gwei,
		Payload: types.Payload{
			Kind:     types.TxSwap,
			Hops:     []types.SwapHop{{Venue: w.uni.Addr, TokenIn: w.weth, TokenOut: w.dai}},
			AmountIn: types.Ether,
		},
	}
	rcpt, err := w.ex.Apply(w.ctx(), tx, 0)
	if err != nil || rcpt.Status != types.StatusSuccess {
		t.Fatalf("apply: %+v %v", rcpt, err)
	}
	if countLogs(rcpt.Logs, events.SigSwap) != 1 || countLogs(rcpt.Logs, events.SigTransfer) != 2 || countLogs(rcpt.Logs, events.SigSync) != 1 {
		t.Errorf("log mix wrong: %d logs", len(rcpt.Logs))
	}
	if w.st.TokenBalance(w.dai, alice) == 0 {
		t.Error("swap output missing")
	}
}

func TestSwapSlippageRevertsEverything(t *testing.T) {
	w := newWorld(t)
	alice := types.DeriveAddress("alice", 0)
	w.fund(alice, types.Ether)
	w.st.MintToken(w.weth, alice, 10*types.Ether)
	tx := &types.Transaction{
		From: alice, GasLimit: GasSwapBase + GasSwapPerHop, GasPrice: types.Gwei,
		CoinbaseTip: types.Milliether,
		Payload: types.Payload{
			Kind:     types.TxSwap,
			Hops:     []types.SwapHop{{Venue: w.uni.Addr, TokenIn: w.weth, TokenOut: w.dai}},
			AmountIn: types.Ether,
			MinOut:   1_000_000 * types.Ether, // impossible
		},
	}
	minerBefore := w.st.Balance(w.miner)
	rcpt, err := w.ex.Apply(w.ctx(), tx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rcpt.Status != types.StatusFailed {
		t.Fatal("should fail on slippage")
	}
	if len(rcpt.Logs) != 0 {
		t.Error("failed tx must emit no logs")
	}
	if w.st.TokenBalance(w.weth, alice) != 10*types.Ether {
		t.Error("tokens must be restored")
	}
	if rcpt.CoinbaseTransfer != 0 {
		t.Error("coinbase tip must not land on failure")
	}
	// Miner still collects the gas fee but not the tip.
	wantFee := types.Amount(GasSwapBase+GasSwapPerHop) * types.Gwei
	if w.st.Balance(w.miner)-minerBefore != wantFee {
		t.Errorf("miner delta = %v want %v", w.st.Balance(w.miner)-minerBefore, wantFee)
	}
}

func TestMultiSwapArbitrageLoop(t *testing.T) {
	w := newWorld(t)
	// Skew sushi so WETH is cheap there: sell lots of DAI into sushi first.
	whale := types.DeriveAddress("whale", 0)
	w.st.MintToken(w.dai, whale, 400_000*types.Ether)
	pool, _ := w.sushi.Pool(w.weth, w.dai)
	if _, err := pool.Swap(w.st, whale, w.dai, 400_000*types.Ether, 0); err != nil {
		t.Fatal(err)
	}

	arb := types.DeriveAddress("arb", 0)
	w.fund(arb, types.Ether)
	w.st.MintToken(w.weth, arb, 10*types.Ether)
	hops := []types.SwapHop{
		{Venue: w.sushi.Addr, TokenIn: w.weth, TokenOut: w.dai}, // sell WETH where expensive
		{Venue: w.uni.Addr, TokenIn: w.dai, TokenOut: w.weth},   // buy back where cheap
	}
	quote, err := w.ex.QuotePath(hops, 5*types.Ether)
	if err != nil {
		t.Fatal(err)
	}
	if quote <= 5*types.Ether {
		t.Fatalf("arb should quote profitable: %v", quote)
	}
	tx := &types.Transaction{
		From: arb, GasLimit: GasSwapBase + 2*GasSwapPerHop, GasPrice: types.Gwei,
		Payload: types.Payload{Kind: types.TxMultiSwap, Hops: hops, AmountIn: 5 * types.Ether},
	}
	rcpt, err := w.ex.Apply(w.ctx(), tx, 0)
	if err != nil || rcpt.Status != types.StatusSuccess {
		t.Fatalf("apply: %+v %v", rcpt, err)
	}
	if got := w.st.TokenBalance(w.weth, arb); got <= 10*types.Ether {
		t.Errorf("arb balance after = %v", got)
	}
	if countLogs(rcpt.Logs, events.SigSwap) != 2 {
		t.Error("want two Swap logs")
	}
}

func TestLiquidateViaExecutor(t *testing.T) {
	w := newWorld(t)
	borrower := types.DeriveAddress("borrower", 0)
	w.st.MintToken(w.weth, borrower, 10*types.Ether)
	loan, err := w.aave.OpenLoan(w.st, borrower, w.weth, 10*types.Ether, w.dai, 14_000*types.Ether)
	if err != nil {
		t.Fatal(err)
	}
	w.ex.Env.Oracle.SetPrice(w.weth, types.FromEther(0.8))

	liq := types.DeriveAddress("liq", 0)
	w.fund(liq, types.Ether)
	w.st.MintToken(w.dai, liq, 7_000*types.Ether)
	tx := &types.Transaction{
		From: liq, GasLimit: GasLiquidate, GasPrice: types.Gwei,
		Payload: types.Payload{Kind: types.TxLiquidate, Protocol: w.aave.Addr, LoanID: loan.ID, Repay: 7_000 * types.Ether},
	}
	rcpt, err := w.ex.Apply(w.ctx(), tx, 0)
	if err != nil || rcpt.Status != types.StatusSuccess {
		t.Fatalf("apply: %+v %v", rcpt, err)
	}
	if countLogs(rcpt.Logs, events.SigLiquidationCall) != 1 {
		t.Error("want LiquidationCall log")
	}
	if w.st.TokenBalance(w.weth, liq) == 0 {
		t.Error("collateral not received")
	}
}

func TestFlashLoanArbitrage(t *testing.T) {
	w := newWorld(t)
	// Create price gap as before.
	whale := types.DeriveAddress("whale", 0)
	w.st.MintToken(w.dai, whale, 400_000*types.Ether)
	pool, _ := w.sushi.Pool(w.weth, w.dai)
	if _, err := pool.Swap(w.st, whale, w.dai, 400_000*types.Ether, 0); err != nil {
		t.Fatal(err)
	}
	arb := types.DeriveAddress("flasharb", 0)
	w.fund(arb, types.Ether) // only gas money — capital is flash-borrowed
	hops := []types.SwapHop{
		{Venue: w.uni.Addr, TokenIn: w.dai, TokenOut: w.weth},   // buy WETH cheap
		{Venue: w.sushi.Addr, TokenIn: w.weth, TokenOut: w.dai}, // sell expensive
	}
	tx := &types.Transaction{
		From: arb, GasLimit: GasFlashLoanBase + GasSwapBase + 2*GasSwapPerHop, GasPrice: types.Gwei,
		Payload: types.Payload{
			Kind:        types.TxFlashLoan,
			Protocol:    w.aave.Addr,
			FlashToken:  w.dai,
			FlashAmount: 100_000 * types.Ether,
			Inner:       &types.Payload{Kind: types.TxMultiSwap, Hops: hops, AmountIn: 100_000 * types.Ether},
		},
	}
	rcpt, err := w.ex.Apply(w.ctx(), tx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rcpt.Status != types.StatusSuccess {
		t.Fatal("flash arb should succeed")
	}
	if countLogs(rcpt.Logs, events.SigFlashLoan) != 1 {
		t.Error("want FlashLoan log")
	}
	if w.st.TokenBalance(w.dai, arb) <= 0 {
		t.Error("flash arb should leave profit")
	}
}

func TestFlashLoanUnprofitableReverts(t *testing.T) {
	w := newWorld(t)
	arb := types.DeriveAddress("flasharb", 0)
	w.fund(arb, types.Ether)
	// Balanced pools: round trip loses the fee → cannot repay → revert.
	hops := []types.SwapHop{
		{Venue: w.sushi.Addr, TokenIn: w.dai, TokenOut: w.weth},
		{Venue: w.uni.Addr, TokenIn: w.weth, TokenOut: w.dai},
	}
	tx := &types.Transaction{
		From: arb, GasLimit: GasFlashLoanBase + GasSwapBase + 2*GasSwapPerHop, GasPrice: types.Gwei,
		Payload: types.Payload{
			Kind:        types.TxFlashLoan,
			Protocol:    w.aave.Addr,
			FlashToken:  w.dai,
			FlashAmount: 100_000 * types.Ether,
			Inner:       &types.Payload{Kind: types.TxMultiSwap, Hops: hops, AmountIn: 100_000 * types.Ether},
		},
	}
	protBefore := w.st.TokenBalance(w.dai, w.aave.Addr)
	uniPool, _ := w.uni.Pool(w.weth, w.dai)
	ra0, rb0 := uniPool.Reserves(w.st)
	rcpt, err := w.ex.Apply(w.ctx(), tx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rcpt.Status != types.StatusFailed {
		t.Fatal("unprofitable flash loan must fail")
	}
	if w.st.TokenBalance(w.dai, w.aave.Addr) != protBefore {
		t.Error("protocol reserves must be restored")
	}
	ra1, rb1 := uniPool.Reserves(w.st)
	if ra0 != ra1 || rb0 != rb1 {
		t.Error("pool reserves must be restored")
	}
}

func TestOracleUpdateTx(t *testing.T) {
	w := newWorld(t)
	admin := types.DeriveAddress("admin", 0)
	w.fund(admin, types.Ether)
	tx := &types.Transaction{
		From: admin, GasLimit: GasOracleUpdate, GasPrice: types.Gwei,
		Payload: types.Payload{Kind: types.TxOracleUpdate, OracleToken: w.weth, OraclePrice: types.FromEther(0.9)},
	}
	rcpt, err := w.ex.Apply(w.ctx(), tx, 0)
	if err != nil || rcpt.Status != types.StatusSuccess {
		t.Fatalf("apply: %+v %v", rcpt, err)
	}
	if p, _ := w.ex.Env.Oracle.Price(w.weth); p != types.FromEther(0.9) {
		t.Error("oracle not updated")
	}
	if countLogs(rcpt.Logs, events.SigOracleUpdate) != 1 {
		t.Error("want oracle log")
	}
}

func TestMinerPayoutBatch(t *testing.T) {
	w := newWorld(t)
	poolOp := types.DeriveAddress("pool-op", 0)
	w.fund(poolOp, 100*types.Ether)
	entries := make([]types.PayoutEntry, 10)
	for i := range entries {
		entries[i] = types.PayoutEntry{To: types.DeriveAddress("worker", uint64(i)), Amount: types.Ether}
	}
	tx := &types.Transaction{
		From: poolOp, GasLimit: GasPayoutPer * 10, GasPrice: types.Gwei,
		Payload: types.Payload{Kind: types.TxMinerPayout, Payouts: entries},
	}
	rcpt, err := w.ex.Apply(w.ctx(), tx, 0)
	if err != nil || rcpt.Status != types.StatusSuccess {
		t.Fatalf("apply: %+v %v", rcpt, err)
	}
	for i := range entries {
		if w.st.Balance(types.DeriveAddress("worker", uint64(i))) != types.Ether {
			t.Fatalf("worker %d unpaid", i)
		}
	}
}

func TestGasForSchedule(t *testing.T) {
	if GasFor(&types.Payload{Kind: types.TxTransfer}) != GasTransfer {
		t.Error("transfer gas")
	}
	p := types.Payload{Kind: types.TxMultiSwap, Hops: make([]types.SwapHop, 3)}
	if GasFor(&p) != GasSwapBase+3*GasSwapPerHop {
		t.Error("multiswap gas")
	}
	fl := types.Payload{Kind: types.TxFlashLoan, Inner: &p}
	if GasFor(&fl) != GasFlashLoanBase+GasSwapBase+3*GasSwapPerHop {
		t.Error("flash loan gas should include inner")
	}
	pay := types.Payload{Kind: types.TxMinerPayout, Payouts: make([]types.PayoutEntry, 7)}
	if GasFor(&pay) != 7*GasPayoutPer {
		t.Error("payout gas")
	}
}

func TestQuoteDoesNotMutate(t *testing.T) {
	w := newWorld(t)
	pool, _ := w.uni.Pool(w.weth, w.dai)
	ra0, rb0 := pool.Reserves(w.st)
	hops := []types.SwapHop{{Venue: w.uni.Addr, TokenIn: w.weth, TokenOut: w.dai}}
	if _, err := w.ex.QuotePath(hops, types.Ether); err != nil {
		t.Fatal(err)
	}
	ra1, rb1 := pool.Reserves(w.st)
	if ra0 != ra1 || rb0 != rb1 {
		t.Error("quote must not move reserves")
	}
}

func TestEtherConservationAcrossTxs(t *testing.T) {
	w := newWorld(t)
	alice := types.DeriveAddress("alice", 0)
	w.fund(alice, 100*types.Ether)
	w.st.MintToken(w.weth, alice, 100*types.Ether)
	total := w.st.TotalEther()
	ctx := w.ctx() // pre-London: no burn, so total is conserved
	for i := 0; i < 20; i++ {
		tx := &types.Transaction{
			Nonce: uint64(i), From: alice, GasLimit: GasSwapBase + GasSwapPerHop, GasPrice: types.Gwei,
			Payload: types.Payload{
				Kind:     types.TxSwap,
				Hops:     []types.SwapHop{{Venue: w.uni.Addr, TokenIn: w.weth, TokenOut: w.dai}},
				AmountIn: types.Ether,
			},
		}
		if _, err := w.ex.Apply(ctx, tx, i); err != nil {
			t.Fatal(err)
		}
	}
	if w.st.TotalEther() != total {
		t.Errorf("ether not conserved: %v -> %v", total, w.st.TotalEther())
	}
}

// TestReceiptLogsOwnTheirSlices checks the executor's log slabs: a
// receipt without logs keeps Logs nil, and every slice of a receipt's
// logs is capped at its length, so appending to one receipt's logs,
// topics or data can never write into another's.
func TestReceiptLogsOwnTheirSlices(t *testing.T) {
	w := newWorld(t)
	alice := types.DeriveAddress("alice", 0)
	w.fund(alice, 10*types.Ether)
	w.st.MintToken(w.weth, alice, 10*types.Ether)
	plain := &types.Transaction{
		From: alice, To: types.DeriveAddress("bob", 0), Value: 1, GasLimit: GasTransfer, GasPrice: types.Gwei,
		Payload: types.Payload{Kind: types.TxTransfer},
	}
	rcpt, err := w.ex.Apply(w.ctx(), plain, 0)
	if err != nil || rcpt.Status != types.StatusSuccess {
		t.Fatalf("apply: %+v %v", rcpt, err)
	}
	if rcpt.Logs != nil {
		t.Errorf("a transfer's receipt has %d logs, want nil", len(rcpt.Logs))
	}
	for i := 0; i < 3; i++ {
		tx := &types.Transaction{
			Nonce: uint64(1 + i), From: alice, GasLimit: GasSwapBase + GasSwapPerHop, GasPrice: types.Gwei,
			Payload: types.Payload{
				Kind:     types.TxSwap,
				Hops:     []types.SwapHop{{Venue: w.uni.Addr, TokenIn: w.weth, TokenOut: w.dai}},
				AmountIn: types.Ether,
			},
		}
		r, err := w.ex.Apply(w.ctx(), tx, 1+i)
		if err != nil || r.Status != types.StatusSuccess || len(r.Logs) == 0 {
			t.Fatalf("apply: %+v %v", r, err)
		}
		if cap(r.Logs) != len(r.Logs) {
			t.Errorf("receipt %d: logs capacity %d, length %d", i, cap(r.Logs), len(r.Logs))
		}
		for j, l := range r.Logs {
			if cap(l.Topics) != len(l.Topics) || cap(l.Data) != len(l.Data) {
				t.Errorf("receipt %d log %d: topics %d/%d, data %d/%d (length/capacity)", i, j,
					len(l.Topics), cap(l.Topics), len(l.Data), cap(l.Data))
			}
		}
	}
}

// TestRevertersFollowLendingRegistry checks that the executor reuses its
// list of journaled stores and rebuilds it when a protocol registers.
func TestRevertersFollowLendingRegistry(t *testing.T) {
	w := newWorld(t)
	revs := w.ex.reverters()
	if again := w.ex.reverters(); len(again) != len(revs) || &again[0] != &revs[0] {
		t.Fatal("reverters rebuilt without a new protocol")
	}
	dydx := lending.New(lending.Config{Name: "dYdX", LiqThresholdBps: 8000, LiqBonusBps: 500, CloseFactorBps: 5000, FlashLoanFeeBps: 2}, w.ex.Env.Oracle)
	w.ex.Env.Lending.Add(dydx)
	grown := w.ex.reverters()
	if len(grown) != len(revs)+1 || grown[len(grown)-1] != reverter(dydx) {
		t.Fatalf("after a registration: %d reverters, want %d ending in the new protocol", len(grown), len(revs)+1)
	}
}
