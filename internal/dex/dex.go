// Package dex implements constant-product automated market makers across
// multiple exchange venues, mirroring the exchanges the paper crawls
// (Uniswap V2/V3, SushiSwap, Bancor, …).
//
// Pool reserves are held in the state ledger under the pool's address, the
// way real AMM contracts custody their tokens; reverting a transaction via
// state snapshots therefore restores pool reserves automatically.
//
// Swaps emit Swap and Sync events plus the underlying ERC-20 Transfer
// events, which is all the detection heuristics in internal/core/detect
// get to see.
package dex

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"mevscope/internal/state"
	"mevscope/internal/types"
)

// Errors returned by swap execution.
var (
	ErrNoPool            = errors.New("dex: no pool for pair")
	ErrInsufficientInput = errors.New("dex: insufficient input amount")
	ErrSlippage          = errors.New("dex: output below minimum (slippage)")
	ErrEmptyPool         = errors.New("dex: pool has no liquidity")
)

// Venue is one exchange deployment (e.g. "UniswapV2") holding many pools.
type Venue struct {
	Name   string
	Addr   types.Address
	FeeBps int // swap fee in basis points, e.g. 30 = 0.30 %

	pools map[pairKey]*Pool
}

type pairKey struct{ a, b types.Address }

func keyFor(x, y types.Address) pairKey {
	if lessAddr(y, x) {
		x, y = y, x
	}
	return pairKey{x, y}
}

func lessAddr(a, b types.Address) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// NewVenue creates an exchange venue with the given swap fee.
func NewVenue(name string, feeBps int) *Venue {
	return &Venue{
		Name:   name,
		Addr:   types.DeriveAddress("venue:"+name, 0),
		FeeBps: feeBps,
		pools:  make(map[pairKey]*Pool),
	}
}

// Pool is a constant-product pair on a venue. Reserves are read from the
// ledger at the pool address, through ledger slots the pool keeps.
type Pool struct {
	Venue          *Venue
	Addr           types.Address
	TokenA, TokenB types.Address // sorted

	st    *state.State // the ledger slotA and slotB index
	slotA state.Slot
	slotB state.Slot
}

// EnsurePool returns the venue's pool for the token pair, creating the
// (empty) pool on first use.
func (v *Venue) EnsurePool(x, y types.Address) *Pool {
	k := keyFor(x, y)
	if p, ok := v.pools[k]; ok {
		return p
	}
	p := &Pool{
		Venue:  v,
		Addr:   types.DeriveAddress("pool:"+v.Name, poolIndex(k)),
		TokenA: k.a,
		TokenB: k.b,
	}
	v.pools[k] = p
	return p
}

func poolIndex(k pairKey) uint64 {
	h := types.HashData(k.a[:], k.b[:])
	var idx uint64
	for i := 0; i < 8; i++ {
		idx = idx<<8 | uint64(h[i])
	}
	return idx
}

// Pool returns the existing pool for a pair, if any.
func (v *Venue) Pool(x, y types.Address) (*Pool, bool) {
	p, ok := v.pools[keyFor(x, y)]
	return p, ok
}

// Pools lists the venue's pools in deterministic order.
func (v *Venue) Pools() []*Pool {
	out := make([]*Pool, 0, len(v.pools))
	for _, p := range v.pools {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return lessAddr(out[i].Addr, out[j].Addr) })
	return out
}

// ReserveSlots returns the ledger slots of the pool's TokenA and TokenB
// reserves in st. The pool resolves them on first use and keeps them
// while it is used with the same ledger.
func (p *Pool) ReserveSlots(st *state.State) (a, b state.Slot) {
	if p.st != st {
		p.st, p.slotA, p.slotB = st, st.TokenSlot(p.TokenA, p.Addr), st.TokenSlot(p.TokenB, p.Addr)
	}
	return p.slotA, p.slotB
}

// Reserves returns the current ledger balances of both pool tokens.
func (p *Pool) Reserves(st *state.State) (ra, rb types.Amount) {
	a, b := p.ReserveSlots(st)
	return st.At(a), st.At(b)
}

// Reserve returns the reserve of one token (which must be TokenA or TokenB).
func (p *Pool) Reserve(st *state.State, token types.Address) types.Amount {
	a, b := p.ReserveSlots(st)
	switch token {
	case p.TokenA:
		return st.At(a)
	case p.TokenB:
		return st.At(b)
	}
	return st.TokenBalance(token, p.Addr)
}

// Other returns the counterpart token of the pair.
func (p *Pool) Other(token types.Address) types.Address {
	if token == p.TokenA {
		return p.TokenB
	}
	return p.TokenA
}

// Has reports whether token is one side of the pair.
func (p *Pool) Has(token types.Address) bool { return token == p.TokenA || token == p.TokenB }

// AmountOut computes the constant-product output for an exact input,
// after the venue fee, with Quote.
func (p *Pool) AmountOut(st *state.State, tokenIn types.Address, in types.Amount) (types.Amount, error) {
	if in <= 0 {
		return 0, ErrInsufficientInput
	}
	if !p.Has(tokenIn) {
		return 0, fmt.Errorf("dex: token %v not in pool", tokenIn.Short())
	}
	rin := p.Reserve(st, tokenIn)
	rout := p.Reserve(st, p.Other(tokenIn))
	if rin <= 0 || rout <= 0 {
		return 0, ErrEmptyPool
	}
	return Quote(rin, rout, in, p.Venue.FeeBps), nil
}

// Quote is the constant-product output for an exact input in against
// reserves rin and rout after a fee of feeBps basis points,
// ⌊rout·in·(10000−feeBps) / (rin·10000 + in·(10000−feeBps))⌋. The
// numerator needs up to ~140 bits and the denominator more than 64 once
// rin passes ~1.8e15, so Quote works in fixed-width words with math/bits
// and is exact for every positive input. It returns 0 when an input is
// not positive or the fee takes the whole input.
func Quote(rin, rout, in types.Amount, feeBps int) types.Amount {
	if rin <= 0 || rout <= 0 || in <= 0 || feeBps >= 10000 {
		return 0
	}
	f := uint64(10000 - feeBps)
	fHi, fLo := bits.Mul64(uint64(in), f) // in·f
	h, n0 := bits.Mul64(uint64(rout), fLo)
	n2, m := bits.Mul64(uint64(rout), fHi)
	n1, c := bits.Add64(h, m, 0)
	n2 += c                                  // (n2,n1,n0) = rout·in·f
	d1, d0 := bits.Mul64(uint64(rin), 10000) // (d1,d0) = rin·10000 + in·f
	d0, c = bits.Add64(d0, fLo, 0)
	d1 += fHi + c
	return types.Amount(div192(n2, n1, n0, d1, d0))
}

// div192 returns ⌊(n2,n1,n0) / (d1,d0)⌋ for a quotient below 2^63, which
// Quote's is: it is below rout.
func div192(n2, n1, n0, d1, d0 uint64) uint64 {
	if d1 == 0 { // then n2 is 0 and n1 < d0
		q, _ := bits.Div64(n1, n0, d0)
		return q
	}
	// Knuth's algorithm D for one quotient word: normalize d1's top bit
	// set, estimate from the top words, which overshoots by at most 2,
	// and step down while q·d exceeds n, that is while q·d0 exceeds the
	// remainder r·2^64 + n0. Once r overflows a word it cannot.
	s := uint(bits.LeadingZeros64(d1))
	d1, d0 = d1<<s|d0>>(64-s), d0<<s
	n2, n1, n0 = n2<<s|n1>>(64-s), n1<<s|n0>>(64-s), n0<<s
	q, r := bits.Div64(n2, n1, d1)
	for {
		if ph, pl := bits.Mul64(q, d0); ph < r || ph == r && pl <= n0 {
			return q
		}
		q--
		var c uint64
		if r, c = bits.Add64(r, d1, 0); c != 0 {
			return q
		}
	}
}

// SpotPrice returns the marginal price of tokenOut per tokenIn as a float,
// ignoring fees. Zero if the pool is empty.
func (p *Pool) SpotPrice(st *state.State, tokenIn types.Address) float64 {
	rin := p.Reserve(st, tokenIn)
	rout := p.Reserve(st, p.Other(tokenIn))
	if rin <= 0 {
		return 0
	}
	return float64(rout) / float64(rin)
}

// SwapResult reports a completed swap for event emission and callers.
type SwapResult struct {
	Pool      *Pool
	TokenIn   types.Address
	TokenOut  types.Address
	AmountIn  types.Amount
	AmountOut types.Amount
}

// Swap executes an exact-input swap by trader against the pool, moving
// tokens through the ledger. minOut of zero disables slippage protection.
func (p *Pool) Swap(st *state.State, trader, tokenIn types.Address, in, minOut types.Amount) (SwapResult, error) {
	out, err := p.AmountOut(st, tokenIn, in)
	if err != nil {
		return SwapResult{}, err
	}
	if out <= 0 {
		return SwapResult{}, ErrInsufficientInput
	}
	if minOut > 0 && out < minOut {
		return SwapResult{}, ErrSlippage
	}
	tokenOut := p.Other(tokenIn)
	if err := st.TransferToken(tokenIn, trader, p.Addr, in); err != nil {
		return SwapResult{}, err
	}
	if err := st.TransferToken(tokenOut, p.Addr, trader, out); err != nil {
		return SwapResult{}, err
	}
	return SwapResult{Pool: p, TokenIn: tokenIn, TokenOut: tokenOut, AmountIn: in, AmountOut: out}, nil
}

// AddLiquidity deposits both tokens into the pool from provider. It does
// not mint LP shares — liquidity provision bookkeeping is out of scope for
// the measurements, only reserve depth matters.
func (p *Pool) AddLiquidity(st *state.State, provider types.Address, amtA, amtB types.Amount) error {
	if err := st.TransferToken(p.TokenA, provider, p.Addr, amtA); err != nil {
		return err
	}
	return st.TransferToken(p.TokenB, provider, p.Addr, amtB)
}

// Registry resolves venues by address and name for the whole world.
type Registry struct {
	byAddr map[types.Address]*Venue
	byName map[string]*Venue
	order  []*Venue
}

// NewRegistry creates an empty venue registry.
func NewRegistry() *Registry {
	return &Registry{byAddr: make(map[types.Address]*Venue), byName: make(map[string]*Venue)}
}

// Add registers a venue.
func (r *Registry) Add(v *Venue) {
	if _, dup := r.byAddr[v.Addr]; dup {
		return
	}
	r.byAddr[v.Addr] = v
	r.byName[v.Name] = v
	r.order = append(r.order, v)
}

// ByAddr resolves a venue by its address.
func (r *Registry) ByAddr(a types.Address) (*Venue, bool) {
	v, ok := r.byAddr[a]
	return v, ok
}

// ByName resolves a venue by name.
func (r *Registry) ByName(n string) (*Venue, bool) {
	v, ok := r.byName[n]
	return v, ok
}

// Venues lists venues in registration order.
func (r *Registry) Venues() []*Venue { return r.order }

// PoolByAddr finds a pool anywhere in the registry by its address.
func (r *Registry) PoolByAddr(a types.Address) (*Pool, bool) {
	for _, v := range r.order {
		for _, p := range v.pools {
			if p.Addr == a {
				return p, true
			}
		}
	}
	return nil, false
}
