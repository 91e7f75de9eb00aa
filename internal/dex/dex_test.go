package dex

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mevscope/internal/state"
	"mevscope/internal/types"
)

func setup(t *testing.T) (*state.State, *Venue, *Pool, types.Address, types.Address, types.Address) {
	t.Helper()
	st := state.New()
	weth := st.RegisterToken("WETH", 18)
	dai := st.RegisterToken("DAI", 18)
	v := NewVenue("UniswapV2", 30)
	p := v.EnsurePool(weth, dai)
	lp := types.DeriveAddress("lp", 0)
	st.MintToken(weth, lp, 1_000*types.Ether)
	st.MintToken(dai, lp, 2_000_000*types.Ether)
	if err := p.AddLiquidity(st, lp, 1_000*types.Ether, 2_000_000*types.Ether); err != nil {
		t.Fatal(err)
	}
	return st, v, p, weth, dai, lp
}

func TestEnsurePoolSymmetric(t *testing.T) {
	st := state.New()
	x := st.RegisterToken("A", 18)
	y := st.RegisterToken("B", 18)
	v := NewVenue("V", 30)
	p1 := v.EnsurePool(x, y)
	p2 := v.EnsurePool(y, x)
	if p1 != p2 {
		t.Error("pair ordering should not matter")
	}
	if got, ok := v.Pool(y, x); !ok || got != p1 {
		t.Error("Pool lookup")
	}
	if len(v.Pools()) != 1 {
		t.Error("Pools count")
	}
}

func TestPoolAddressesDistinctAcrossVenues(t *testing.T) {
	st := state.New()
	x := st.RegisterToken("A", 18)
	y := st.RegisterToken("B", 18)
	v1 := NewVenue("V1", 30)
	v2 := NewVenue("V2", 30)
	if v1.EnsurePool(x, y).Addr == v2.EnsurePool(x, y).Addr {
		t.Error("same pair on different venues must have distinct addresses")
	}
}

func TestAmountOutBasics(t *testing.T) {
	st, _, p, weth, _, _ := setup(t)
	out, err := p.AmountOut(st, weth, types.Ether)
	if err != nil {
		t.Fatal(err)
	}
	// 1 ETH into a 1000/2,000,000 pool at 0.30% fee ≈ 1994 DAI.
	if out < 1_990*types.Ether || out > 1_996*types.Ether {
		t.Errorf("out = %v", out)
	}
	if _, err := p.AmountOut(st, weth, 0); err != ErrInsufficientInput {
		t.Error("zero input should fail")
	}
	if _, err := p.AmountOut(st, types.DeriveAddress("x", 9), types.Ether); err == nil {
		t.Error("foreign token should fail")
	}
}

func TestAmountOutEmptyPool(t *testing.T) {
	st := state.New()
	x := st.RegisterToken("A", 18)
	y := st.RegisterToken("B", 18)
	p := NewVenue("V", 30).EnsurePool(x, y)
	if _, err := p.AmountOut(st, x, types.Ether); err != ErrEmptyPool {
		t.Errorf("err = %v", err)
	}
}

func TestSwapMovesTokens(t *testing.T) {
	st, _, p, weth, dai, _ := setup(t)
	trader := types.DeriveAddress("trader", 1)
	st.MintToken(weth, trader, 10*types.Ether)

	ra0, rb0 := p.Reserves(st)
	res, err := p.Swap(st, trader, weth, types.Ether, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.TokenOut != dai {
		t.Error("wrong output token")
	}
	if st.TokenBalance(weth, trader) != 9*types.Ether {
		t.Error("input not debited")
	}
	if st.TokenBalance(dai, trader) != res.AmountOut {
		t.Error("output not credited")
	}
	ra1, rb1 := p.Reserves(st)
	if ra1 != ra0+types.Ether || rb1 != rb0-res.AmountOut {
		t.Error("reserves not updated")
	}
}

func TestSwapSlippageGuard(t *testing.T) {
	st, _, p, weth, _, _ := setup(t)
	trader := types.DeriveAddress("trader", 1)
	st.MintToken(weth, trader, 10*types.Ether)
	if _, err := p.Swap(st, trader, weth, types.Ether, 3_000*types.Ether); err != ErrSlippage {
		t.Errorf("err = %v", err)
	}
	if st.TokenBalance(weth, trader) != 10*types.Ether {
		t.Error("failed swap must not move tokens")
	}
}

func TestSwapInsufficientTraderBalance(t *testing.T) {
	st, _, p, weth, _, _ := setup(t)
	trader := types.DeriveAddress("broke", 1)
	if _, err := p.Swap(st, trader, weth, types.Ether, 0); err == nil {
		t.Error("swap without balance should fail")
	}
}

func TestConstantProductInvariant(t *testing.T) {
	st, _, p, weth, _, _ := setup(t)
	trader := types.DeriveAddress("trader", 1)
	st.MintToken(weth, trader, 100*types.Ether)

	ra0, rb0 := p.Reserves(st)
	k0 := float64(ra0) * float64(rb0)
	for i := 0; i < 10; i++ {
		if _, err := p.Swap(st, trader, weth, types.Ether, 0); err != nil {
			t.Fatal(err)
		}
		ra, rb := p.Reserves(st)
		k := float64(ra) * float64(rb)
		if k < k0*0.9999 { // k must never decrease (fees make it grow)
			t.Fatalf("k decreased: %.0f -> %.0f", k0, k)
		}
		k0 = k
	}
}

func TestSpotPriceMovesAgainstTrader(t *testing.T) {
	st, _, p, weth, _, _ := setup(t)
	trader := types.DeriveAddress("trader", 1)
	st.MintToken(weth, trader, 100*types.Ether)

	before := p.SpotPrice(st, weth)
	if _, err := p.Swap(st, trader, weth, 50*types.Ether, 0); err != nil {
		t.Fatal(err)
	}
	after := p.SpotPrice(st, weth)
	if after >= before {
		t.Errorf("buying DAI with WETH should lower DAI-per-WETH price: %f -> %f", before, after)
	}
}

func TestSandwichProfitability(t *testing.T) {
	// The economic core of the paper: front-running a large trade and
	// selling back after it is profitable for the attacker.
	st, _, p, weth, dai, _ := setup(t)
	victim := types.DeriveAddress("victim", 1)
	attacker := types.DeriveAddress("attacker", 1)
	st.MintToken(weth, victim, 200*types.Ether)
	st.MintToken(weth, attacker, 50*types.Ether)

	start := st.TokenBalance(weth, attacker)
	front, err := p.Swap(st, attacker, weth, 10*types.Ether, 0) // buy DAI first
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Swap(st, victim, weth, 100*types.Ether, 0); err != nil { // victim's big buy
		t.Fatal(err)
	}
	if _, err := p.Swap(st, attacker, dai, front.AmountOut, 0); err != nil { // sell back
		t.Fatal(err)
	}
	end := st.TokenBalance(weth, attacker)
	if end <= start {
		t.Errorf("sandwich should profit: start %v end %v", start, end)
	}
}

func TestRegistry(t *testing.T) {
	st := state.New()
	x := st.RegisterToken("A", 18)
	y := st.RegisterToken("B", 18)
	r := NewRegistry()
	v := NewVenue("Uni", 30)
	r.Add(v)
	r.Add(v) // duplicate is a no-op
	if len(r.Venues()) != 1 {
		t.Error("duplicate add")
	}
	if got, ok := r.ByAddr(v.Addr); !ok || got != v {
		t.Error("ByAddr")
	}
	if got, ok := r.ByName("Uni"); !ok || got != v {
		t.Error("ByName")
	}
	p := v.EnsurePool(x, y)
	if got, ok := r.PoolByAddr(p.Addr); !ok || got != p {
		t.Error("PoolByAddr")
	}
	if _, ok := r.PoolByAddr(types.DeriveAddress("nope", 0)); ok {
		t.Error("PoolByAddr miss")
	}
}

// Property: for random pool depths and trade sizes, output never exceeds
// the output reserve and token conservation holds across the swap.
func TestSwapConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := state.New()
		x := st.RegisterToken("X", 18)
		y := st.RegisterToken("Y", 18)
		p := NewVenue("V", 30).EnsurePool(x, y)
		lp := types.DeriveAddress("lp", 0)
		depthX := types.Amount(rng.Int63n(int64(1000*types.Ether)) + 1000)
		depthY := types.Amount(rng.Int63n(int64(1000*types.Ether)) + 1000)
		st.MintToken(x, lp, depthX)
		st.MintToken(y, lp, depthY)
		if err := p.AddLiquidity(st, lp, depthX, depthY); err != nil {
			return false
		}
		trader := types.DeriveAddress("t", 1)
		in := types.Amount(rng.Int63n(int64(100*types.Ether)) + 1)
		st.MintToken(x, trader, in)
		totX, totY := st.TotalToken(x), st.TotalToken(y)
		res, err := p.Swap(st, trader, x, in, 0)
		if err != nil {
			return true // e.g. rounding to zero output on tiny pools — fine
		}
		if res.AmountOut >= depthY {
			return false
		}
		return st.TotalToken(x) == totX && st.TotalToken(y) == totY
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: AmountOut is monotonically non-decreasing in the input amount
// and always positive-slippage (out per in falls as in grows).
func TestAmountOutMonotonicProperty(t *testing.T) {
	st := state.New()
	x := st.RegisterToken("X", 18)
	y := st.RegisterToken("Y", 18)
	p := NewVenue("V", 30).EnsurePool(x, y)
	lp := types.DeriveAddress("lp", 0)
	st.MintToken(x, lp, 10_000*types.Ether)
	st.MintToken(y, lp, 20_000*types.Ether)
	if err := p.AddLiquidity(st, lp, 10_000*types.Ether, 20_000*types.Ether); err != nil {
		t.Fatal(err)
	}
	f := func(rawA, rawB uint32) bool {
		a := types.Amount(rawA%1_000_000) * types.Gwei * 1000
		b := types.Amount(rawB%1_000_000) * types.Gwei * 1000
		if a == 0 || b == 0 {
			return true
		}
		if a > b {
			a, b = b, a
		}
		outA, errA := p.AmountOut(st, x, a)
		outB, errB := p.AmountOut(st, x, b)
		if errA != nil || errB != nil {
			return false
		}
		if outA > outB {
			return false // monotonicity
		}
		// Average price worsens with size (convexity of x*y=k).
		return float64(outA)/float64(a) >= float64(outB)/float64(b)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: a round trip (buy then sell everything) never profits — the
// pool fee guarantees it.
func TestRoundTripNeverProfitsProperty(t *testing.T) {
	f := func(seed int64, rawIn uint32) bool {
		rng := rand.New(rand.NewSource(seed))
		st := state.New()
		x := st.RegisterToken("X", 18)
		y := st.RegisterToken("Y", 18)
		p := NewVenue("V", 30).EnsurePool(x, y)
		lp := types.DeriveAddress("lp", 0)
		dx := types.Amount(rng.Int63n(int64(5_000*types.Ether))) + types.Ether
		dy := types.Amount(rng.Int63n(int64(5_000*types.Ether))) + types.Ether
		st.MintToken(x, lp, dx)
		st.MintToken(y, lp, dy)
		if err := p.AddLiquidity(st, lp, dx, dy); err != nil {
			return false
		}
		trader := types.DeriveAddress("t", 1)
		in := types.Amount(rawIn%1_000_000)*types.Gwei*100 + types.Gwei
		st.MintToken(x, trader, in)
		res1, err := p.Swap(st, trader, x, in, 0)
		if err != nil {
			return true // dust rounding: fine
		}
		res2, err := p.Swap(st, trader, y, res1.AmountOut, 0)
		if err != nil {
			return true
		}
		return res2.AmountOut <= in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPoolReservesFollowTheLedger checks that a pool's kept reserve slots
// belong to one ledger: the same pool read against another ledger reads
// that ledger's reserves, before and after swaps on either.
func TestPoolReservesFollowTheLedger(t *testing.T) {
	st1, _, p, weth, dai, _ := setup(t)
	st2 := state.New()
	st2.RegisterToken("WETH", 18)
	st2.RegisterToken("DAI", 18)
	for i := uint64(0); i < 5; i++ { // lay st2's slots out differently from st1's
		st2.Mint(types.DeriveAddress("other", i), types.Amount(i+1))
	}
	lp := types.DeriveAddress("lp", 1)
	st2.MintToken(weth, lp, 10*types.Ether)
	st2.MintToken(dai, lp, 30*types.Ether)
	if err := p.AddLiquidity(st2, lp, 10*types.Ether, 30*types.Ether); err != nil {
		t.Fatal(err)
	}
	trader := types.DeriveAddress("trader", 0)
	st1.MintToken(weth, trader, types.Ether)
	if _, err := p.Swap(st1, trader, weth, types.Ether, 0); err != nil {
		t.Fatal(err)
	}
	for _, st := range []*state.State{st1, st2, st1} {
		ra, rb := p.Reserves(st)
		if ra != st.TokenBalance(p.TokenA, p.Addr) || rb != st.TokenBalance(p.TokenB, p.Addr) {
			t.Fatalf("reserves %v/%v do not match the ledger's %v/%v", ra, rb,
				st.TokenBalance(p.TokenA, p.Addr), st.TokenBalance(p.TokenB, p.Addr))
		}
	}
	if p.Reserve(st2, weth) != 10*types.Ether || p.Reserve(st2, dai) != 30*types.Ether {
		t.Error("the second ledger's reserves leaked from the first")
	}
}

// TestZeroTokenPoolSideReadsZero checks that a pool side of the zero
// token, which no ledger can hold, reads 0 rather than the pool's ether.
func TestZeroTokenPoolSideReadsZero(t *testing.T) {
	st := state.New()
	x := st.RegisterToken("X", 18)
	p := NewVenue("V", 30).EnsurePool(types.ZeroAddress, x)
	st.Mint(p.Addr, types.Ether)
	if got := p.Reserve(st, types.ZeroAddress); got != 0 {
		t.Errorf("zero-token reserve = %v, want 0", got)
	}
	if ra, rb := p.Reserves(st); ra != 0 || rb != 0 {
		t.Errorf("reserves = %v/%v, want 0/0", ra, rb)
	}
}
