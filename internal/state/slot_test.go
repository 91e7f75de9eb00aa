package state

import (
	"testing"

	"mevscope/internal/types"
)

// TestReadsCreateNoSlot checks that no read grows the ledger: balances of
// unknown holders and tokens, and the totals, read 0 without a slot.
func TestReadsCreateNoSlot(t *testing.T) {
	s := New()
	tok := s.RegisterToken("DAI", 18)
	s.Mint(addr(1), types.Ether)
	n := len(s.bal)
	if s.Balance(addr(2)) != 0 || s.TokenBalance(tok, addr(2)) != 0 || s.TokenBalance(addr(9), addr(1)) != 0 {
		t.Error("an unknown balance read non-zero")
	}
	s.TotalEther()
	s.TotalToken(tok)
	s.TotalToken(addr(9))
	if len(s.bal) != n {
		t.Errorf("reads grew the ledger from %d to %d slots", n, len(s.bal))
	}
}

// TestZeroTokenIsNotAToken checks that ether, filed under the zero token,
// never shows through the token API.
func TestZeroTokenIsNotAToken(t *testing.T) {
	s := New()
	s.Mint(addr(1), 5*types.Ether)
	if got := s.TokenBalance(types.ZeroAddress, addr(1)); got != 0 {
		t.Errorf("TokenBalance of the zero token = %v, want 0", got)
	}
	if got := s.TotalToken(types.ZeroAddress); got != 0 {
		t.Errorf("TotalToken of the zero token = %v, want 0", got)
	}
	if err := s.MintToken(types.ZeroAddress, addr(1), 1); err == nil {
		t.Error("minted the zero token")
	}
	if err := s.TransferToken(types.ZeroAddress, addr(1), addr(2), 1); err == nil {
		t.Error("transferred ether through the token API")
	}
	if s.Balance(addr(1)) != 5*types.Ether {
		t.Error("the ether balance moved")
	}
}

// TestRevertOfNewSlotReadsZero checks that a slot created under a
// snapshot reverts to a zero balance that every read treats as absent.
func TestRevertOfNewSlotReadsZero(t *testing.T) {
	s := New()
	tok := s.RegisterToken("DAI", 18)
	s.Mint(addr(1), types.Ether)
	s.Snapshot()
	s.Mint(addr(2), types.Ether)
	if err := s.MintToken(tok, addr(3), 7); err != nil {
		t.Fatal(err)
	}
	s.Revert()
	if s.Balance(addr(2)) != 0 || s.TokenBalance(tok, addr(3)) != 0 {
		t.Error("a reverted new slot kept its balance")
	}
	if s.TotalEther() != types.Ether || s.TotalToken(tok) != 0 {
		t.Errorf("totals after revert: %v ether, %v DAI", s.TotalEther(), s.TotalToken(tok))
	}
}

// TestSlotIsStable checks that a slot keeps naming its balance while the
// ledger grows, and that At reads what the balance API reads.
func TestSlotIsStable(t *testing.T) {
	s := New()
	tok := s.RegisterToken("DAI", 18)
	i := s.Slot(tok, addr(1))
	if s.Slot(tok, addr(1)) != i || s.At(i) != 0 {
		t.Fatal("a fresh slot is not stable or not empty")
	}
	for k := uint64(2); k < 200; k++ {
		s.Mint(addr(k), types.Amount(k))
	}
	if err := s.MintToken(tok, addr(1), 42); err != nil {
		t.Fatal(err)
	}
	if s.At(i) != 42 || s.TokenBalance(tok, addr(1)) != 42 {
		t.Errorf("slot reads %v, TokenBalance %v, want 42", s.At(i), s.TokenBalance(tok, addr(1)))
	}
	if e := s.Slot(types.ZeroAddress, addr(7)); s.At(e) != 7 {
		t.Errorf("the ether slot reads %v, want 7", s.At(e))
	}
}
