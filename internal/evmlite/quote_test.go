package evmlite_test

import (
	"math/rand"
	"testing"

	"mevscope/internal/genesis"
	"mevscope/internal/types"
)

// executeQuote is the reference QuotePath: execute the path for a
// scratch holder under a ledger snapshot, then revert.
func executeQuote(w *genesis.World, hops []types.SwapHop, amountIn types.Amount) (types.Amount, error) {
	st := w.St
	st.Snapshot()
	defer st.Revert()
	holder := types.DeriveAddress("evmlite:quote", 0)
	if err := st.MintToken(hops[0].TokenIn, holder, amountIn); err != nil {
		return 0, err
	}
	amt := amountIn
	for _, hop := range hops {
		v, ok := w.Venues.ByAddr(hop.Venue)
		if !ok {
			return 0, errUnknownVenue
		}
		pool, ok := v.Pool(hop.TokenIn, hop.TokenOut)
		if !ok {
			return 0, errNoPool
		}
		res, err := pool.Swap(st, holder, hop.TokenIn, amt, 0)
		if err != nil {
			return 0, err
		}
		amt = res.AmountOut
	}
	return amt, nil
}

type refErr string

func (e refErr) Error() string { return string(e) }

const (
	errUnknownVenue = refErr("unknown venue")
	errNoPool       = refErr("no pool")
)

// ledgerView is every balance a genesis world's quotes could touch: each
// pool's reserves and the holdings of the liquidity provider, the lending
// protocols and the scratch quote holder, plus the ether and token
// totals.
func ledgerView(w *genesis.World) []types.Amount {
	tokens := append([]types.Address{w.WETH}, w.Tokens...)
	holders := []types.Address{w.LiquidityOp, types.DeriveAddress("evmlite:quote", 0)}
	for _, p := range w.Lending {
		holders = append(holders, p.Addr)
	}
	for _, v := range w.Venues.Venues() {
		for _, p := range v.Pools() {
			holders = append(holders, p.Addr)
		}
	}
	view := []types.Amount{w.St.TotalEther()}
	for _, tok := range tokens {
		view = append(view, w.St.TotalToken(tok))
		for _, h := range holders {
			view = append(view, w.St.TokenBalance(tok, h))
		}
	}
	for _, h := range holders {
		view = append(view, w.St.Balance(h))
	}
	return view
}

// TestQuotePathMatchesExecution checks the read-only quote walk against
// executing the same path on seeded genesis worlds: 1–3 hops, with pools
// visited twice, hops that spend a token the path does not hold, unknown
// venues, missing pairs, zero and negative amounts and an unregistered
// first token. Every quote must return the executed amount, fail exactly
// when execution fails, and leave every balance as it found it.
func TestQuotePathMatchesExecution(t *testing.T) {
	unknownVenue := types.DeriveAddress("venue:nowhere", 0)
	unregistered := types.DeriveAddress("token:NOPE", 0)
	var ok, failed, revisits int
	for seed := int64(1); seed <= 3; seed++ {
		w, err := genesis.Build(genesis.DefaultConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		before := ledgerView(w)
		rng := rand.New(rand.NewSource(seed))
		venues := w.Venues.Venues()
		randomToken := func() types.Address { return w.Tokens[rng.Intn(len(w.Tokens))] }
		for i := 0; i < 4000; i++ {
			held := w.WETH
			switch r := rng.Intn(20); {
			case r == 0:
				held = unregistered
			case r < 5:
				held = randomToken()
			}
			n := 1 + rng.Intn(3)
			hops := make([]types.SwapHop, 0, n)
			for len(hops) < n {
				hop := types.SwapHop{Venue: venues[rng.Intn(len(venues))].Addr, TokenIn: held}
				switch r := rng.Intn(20); {
				case r == 0:
					hop.Venue = unknownVenue
				case r == 1:
					hop.TokenIn = randomToken() // not what the path holds
				case r < 8 && len(hops) > 0:
					// Back through the previous hop's pool.
					prev := hops[len(hops)-1]
					hop = types.SwapHop{Venue: prev.Venue, TokenIn: prev.TokenOut, TokenOut: prev.TokenIn}
				}
				if hop.TokenOut == (types.Address{}) {
					hop.TokenOut = w.WETH
					if hop.TokenIn == w.WETH || rng.Intn(10) == 0 {
						hop.TokenOut = randomToken() // token/token: no such pool
					}
				}
				hops = append(hops, hop)
				held = hop.TokenOut
			}
			amt := types.Amount(rng.Int63n(int64(200*types.Ether))) + 1
			switch r := rng.Intn(20); {
			case r == 0:
				amt = 0
			case r == 1:
				amt = -amt
			case r == 2:
				amt = types.Amount(rng.Int63n(int64(1 << 62))) // far past any reserve
			case r < 6:
				amt = types.Amount(rng.Int63n(1000)) + 1 // dust
			}

			got, gotErr := w.Ex.QuotePath(hops, amt)
			want, wantErr := executeQuote(w, hops, amt)
			if (gotErr == nil) != (wantErr == nil) || got != want {
				t.Fatalf("seed %d path %d %+v amount %d: QuotePath = %d, %v; execution = %d, %v",
					seed, i, hops, amt, got, gotErr, want, wantErr)
			}
			if gotErr != nil {
				failed++
				continue
			}
			ok++
			for j := 1; j < len(hops); j++ {
				if hops[j].Venue == hops[j-1].Venue && hops[j].TokenIn == hops[j-1].TokenOut && hops[j].TokenOut == hops[j-1].TokenIn {
					revisits++
					break
				}
			}
		}
		after := ledgerView(w)
		for i := range before {
			if before[i] != after[i] {
				t.Fatalf("seed %d: ledger entry %d moved from %d to %d", seed, i, before[i], after[i])
			}
		}
	}
	t.Logf("%d quotes, %d failures, %d revisiting a pool", ok, failed, revisits)
	if ok < 1000 || failed < 1000 || revisits < 100 {
		t.Errorf("weak coverage: %d quotes, %d failures, %d revisiting a pool", ok, failed, revisits)
	}
	// An empty path fails without touching anything.
	w, err := genesis.Build(genesis.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Ex.QuotePath(nil, types.Ether); err == nil {
		t.Error("an empty path quoted")
	}
}
