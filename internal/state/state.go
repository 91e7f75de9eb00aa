// Package state holds the mutable world state of the simulated chain:
// ether balances, ERC-20 style token balances and the token registry.
//
// Every balance lives in one slot of a flat array. A (token, holder) pair
// gets its slot on its first write, or when Slot asks for it, and ether
// is filed under the zero token. Code that reads one balance often, as a
// pool reads its reserves, keeps the slot and reads it with At, which
// costs an index instead of a map lookup.
//
// State supports nested snapshots so the executor can revert failed
// transactions (and failed flash-loan inner calls) atomically, exactly as
// the EVM does.
package state

import (
	"bytes"
	"fmt"
	"sort"

	"mevscope/internal/types"
)

// Token describes a registered ERC-20 style token.
type Token struct {
	Addr   types.Address
	Symbol string
	// Decimals is informational; all amounts use types.Amount base units.
	Decimals int
}

// Slot indexes one balance in a State's ledger. A slot stays valid, and
// keeps naming the same (token, holder) pair, for the life of its State.
type Slot int32

// State is the account/token ledger. The zero value is not usable; call
// New.
//
// The journal records each written slot's previous balance, so Revert is
// array writes with no hashing. Reverting a slot created after the
// snapshot sets it back to zero rather than removing it; no exported read
// can tell a zero slot from a missing one.
type State struct {
	bal    []types.Amount
	slots  map[cell]Slot
	reg    map[types.Address]Token
	symbol map[string]types.Address

	journal []journalEntry
	snaps   []int // journal lengths at snapshot points
}

// cell names one balance: holder's balance of token, ether under the zero
// token.
type cell struct{ token, holder types.Address }

type journalEntry struct {
	slot Slot
	prev types.Amount
}

// New creates an empty ledger.
func New() *State {
	return &State{
		bal:    make([]types.Amount, 1), // slot 0: TokenSlot's zero-token slot, never written
		slots:  make(map[cell]Slot),
		reg:    make(map[types.Address]Token),
		symbol: make(map[string]types.Address),
	}
}

// RegisterToken adds a token to the registry and returns its address,
// derived from the symbol so registrations are deterministic.
func (s *State) RegisterToken(symbol string, decimals int) types.Address {
	if a, ok := s.symbol[symbol]; ok {
		return a
	}
	addr := types.DeriveAddress("token:"+symbol, 0)
	s.reg[addr] = Token{Addr: addr, Symbol: symbol, Decimals: decimals}
	s.symbol[symbol] = addr
	return addr
}

// TokenBySymbol looks up a registered token address.
func (s *State) TokenBySymbol(symbol string) (types.Address, bool) {
	a, ok := s.symbol[symbol]
	return a, ok
}

// TokenInfo returns registry metadata for a token address.
func (s *State) TokenInfo(addr types.Address) (Token, bool) {
	t, ok := s.reg[addr]
	return t, ok
}

// Tokens lists all registered tokens in deterministic (symbol) order.
func (s *State) Tokens() []Token {
	out := make([]Token, 0, len(s.reg))
	for _, t := range s.reg {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Symbol != out[j].Symbol {
			return out[i].Symbol < out[j].Symbol
		}
		return bytes.Compare(out[i].Addr[:], out[j].Addr[:]) < 0
	})
	return out
}

// Slot returns the slot of holder's balance of token, the zero token
// meaning ether, and creates an empty one on first use. Nothing checks
// that token is registered: the token operations below still refuse an
// unregistered token whatever slots exist.
func (s *State) Slot(token, holder types.Address) Slot {
	k := cell{token, holder}
	if i, ok := s.slots[k]; ok {
		return i
	}
	i := Slot(len(s.bal))
	s.slots[k] = i
	s.bal = append(s.bal, 0)
	return i
}

// TokenSlot is Slot for a token balance. The zero token is no token, so
// it gets a slot that holds 0 forever instead of holder's ether.
func (s *State) TokenSlot(token, holder types.Address) Slot {
	if token.IsZero() {
		return 0
	}
	return s.Slot(token, holder)
}

// At returns the balance held in a slot.
func (s *State) At(i Slot) types.Amount { return s.bal[i] }

// get reads a balance without creating its slot.
func (s *State) get(token, holder types.Address) types.Amount {
	if i, ok := s.slots[cell{token, holder}]; ok {
		return s.bal[i]
	}
	return 0
}

// add credits amt (which may be negative) to a slot, journaling the
// previous balance while a snapshot is open.
func (s *State) add(i Slot, amt types.Amount) {
	if len(s.snaps) > 0 {
		s.journal = append(s.journal, journalEntry{slot: i, prev: s.bal[i]})
	}
	s.bal[i] += amt
}

// Balance returns the ether balance of an account.
func (s *State) Balance(a types.Address) types.Amount { return s.get(types.ZeroAddress, a) }

// TokenBalance returns the balance of token held by holder. The zero
// token is not a token: its balance is always 0.
func (s *State) TokenBalance(token, holder types.Address) types.Amount {
	if token.IsZero() {
		return 0
	}
	return s.get(token, holder)
}

// Mint credits ether to an account out of thin air (genesis funding and
// block rewards).
func (s *State) Mint(a types.Address, amt types.Amount) {
	s.add(s.Slot(types.ZeroAddress, a), amt)
}

// Burn destroys ether from an account (EIP-1559 base-fee burn). It fails
// if the balance is insufficient.
func (s *State) Burn(a types.Address, amt types.Amount) error {
	i := s.Slot(types.ZeroAddress, a)
	if s.bal[i] < amt {
		return fmt.Errorf("state: burn %v from %v: insufficient balance %v", amt, a.Short(), s.bal[i])
	}
	s.add(i, -amt)
	return nil
}

// Transfer moves ether between accounts, failing on insufficient funds.
func (s *State) Transfer(from, to types.Address, amt types.Amount) error {
	if amt < 0 {
		return fmt.Errorf("state: negative transfer %v", amt)
	}
	i := s.Slot(types.ZeroAddress, from)
	if s.bal[i] < amt {
		return fmt.Errorf("state: transfer %v from %v: insufficient balance %v", amt, from.Short(), s.bal[i])
	}
	s.add(i, -amt)
	s.add(s.Slot(types.ZeroAddress, to), amt)
	return nil
}

// MintToken credits token units to a holder (pool seeding, loan drawdown).
func (s *State) MintToken(token, holder types.Address, amt types.Amount) error {
	if _, ok := s.reg[token]; !ok {
		return fmt.Errorf("state: mint of unregistered token %v", token.Short())
	}
	s.add(s.Slot(token, holder), amt)
	return nil
}

// BurnToken destroys token units held by holder.
func (s *State) BurnToken(token, holder types.Address, amt types.Amount) error {
	if _, ok := s.reg[token]; !ok {
		return fmt.Errorf("state: burn of unregistered token %v", token.Short())
	}
	i := s.Slot(token, holder)
	if s.bal[i] < amt {
		return fmt.Errorf("state: burn %v of %v from %v: balance %v", amt, token.Short(), holder.Short(), s.bal[i])
	}
	s.add(i, -amt)
	return nil
}

// TransferToken moves token units between holders, failing on insufficient
// balance.
func (s *State) TransferToken(token, from, to types.Address, amt types.Amount) error {
	if amt < 0 {
		return fmt.Errorf("state: negative token transfer %v", amt)
	}
	if _, ok := s.reg[token]; !ok {
		return fmt.Errorf("state: transfer of unregistered token %v", token.Short())
	}
	i := s.Slot(token, from)
	if s.bal[i] < amt {
		return fmt.Errorf("state: transfer %v of %v from %v: balance %v", amt, token.Short(), from.Short(), s.bal[i])
	}
	s.add(i, -amt)
	s.add(s.Slot(token, to), amt)
	return nil
}

// Snapshot opens a revert point. Snapshots nest; each Revert or Commit
// closes the most recent one.
func (s *State) Snapshot() {
	s.snaps = append(s.snaps, len(s.journal))
}

// Revert undoes every balance change since the most recent Snapshot and
// closes it. It panics if no snapshot is open (a programming error in the
// executor).
func (s *State) Revert() {
	if len(s.snaps) == 0 {
		panic("state: Revert without Snapshot")
	}
	mark := s.snaps[len(s.snaps)-1]
	s.snaps = s.snaps[:len(s.snaps)-1]
	for i := len(s.journal) - 1; i >= mark; i-- {
		e := s.journal[i]
		s.bal[e.slot] = e.prev
	}
	s.journal = s.journal[:mark]
}

// Commit closes the most recent snapshot, keeping all changes. If an outer
// snapshot remains open the journal entries are retained so the outer
// revert still covers them.
func (s *State) Commit() {
	if len(s.snaps) == 0 {
		panic("state: Commit without Snapshot")
	}
	s.snaps = s.snaps[:len(s.snaps)-1]
	if len(s.snaps) == 0 {
		s.journal = s.journal[:0]
	}
}

// TotalEther sums all ether balances; conservation checks use it.
func (s *State) TotalEther() types.Amount { return s.total(types.ZeroAddress) }

// TotalToken sums all balances of one token. The zero token sums to 0.
func (s *State) TotalToken(token types.Address) types.Amount {
	if token.IsZero() {
		return 0
	}
	return s.total(token)
}

func (s *State) total(token types.Address) types.Amount {
	var sum types.Amount
	for k, i := range s.slots {
		if k.token == token {
			sum += s.bal[i]
		}
	}
	return sum
}
