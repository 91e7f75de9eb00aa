package types

import (
	"encoding/hex"
	"testing"
	"time"
)

// pinnedPayloadTx is a flash loan whose inner payload is a three-hop
// swap, with enough payouts that its hash preimage outgrows any small
// fixed buffer: every variable-length part of the preimage is present.
func pinnedPayloadTx() *Transaction {
	inner := &Payload{
		Kind:     TxMultiSwap,
		AmountIn: 7 * Gwei,
		MinOut:   6 * Gwei,
	}
	for i := uint64(0); i < 3; i++ {
		inner.Hops = append(inner.Hops, SwapHop{
			Venue:    DeriveAddress("venue", i),
			TokenIn:  DeriveAddress("token", i),
			TokenOut: DeriveAddress("token", i+1),
		})
	}
	p := Payload{
		Kind:        TxFlashLoan,
		Token:       DeriveAddress("token", 0),
		Recipient:   DeriveAddress("recipient", 1),
		Amount:      11,
		Protocol:    DeriveAddress("protocol", 2),
		LoanID:      42,
		Repay:       13,
		FlashToken:  DeriveAddress("token", 0),
		FlashAmount: 1000 * Gwei,
		Inner:       inner,
		OracleToken: DeriveAddress("token", 3),
		OraclePrice: 17,
		Venue:       DeriveAddress("venue", 9),
		TokenA:      DeriveAddress("token", 4),
		TokenB:      DeriveAddress("token", 5),
		AmountA:     19,
		AmountB:     23,
	}
	for i := uint64(0); i < 40; i++ {
		p.Payouts = append(p.Payouts, PayoutEntry{To: DeriveAddress("payee", i), Amount: Amount(i + 1)})
	}
	return &Transaction{
		Nonce: 9, From: DeriveAddress("eoa", 1), To: DeriveAddress("contract", 2),
		Value: 3, GasLimit: 500_000, GasPrice: 40 * Gwei, FeeCap: 90 * Gwei, TipCap: 2 * Gwei,
		CoinbaseTip: 5 * Gwei, Payload: p,
	}
}

func pinnedTransferTx() *Transaction {
	return &Transaction{
		Nonce: 1, From: DeriveAddress("eoa", 7), To: DeriveAddress("eoa", 8),
		Value: 2 * Gwei, GasLimit: 21_000, GasPrice: 30 * Gwei,
		Payload: Payload{Kind: TxTransfer, Recipient: DeriveAddress("eoa", 8), Amount: 2 * Gwei},
	}
}

func pinnedBlock() *Block {
	b := &Block{Header: Header{
		Number:     12_965_000,
		ParentHash: HashData([]byte("parent")),
		Time:       time.Date(2021, 8, 5, 12, 0, 0, 0, time.UTC),
		Miner:      DeriveAddress("miner", 1),
		BaseFee:    30 * Gwei,
		GasLimit:   30_000_000,
		GasUsed:    15_000_000,
	}}
	b.Txs = append(b.Txs, pinnedPayloadTx(), pinnedTransferTx())
	for i := uint64(0); i < 20; i++ {
		b.Txs = append(b.Txs, &Transaction{Nonce: i, From: DeriveAddress("eoa", i), GasPrice: Amount(i) * Gwei})
	}
	b.Seal()
	return b
}

// TestHashValuesPinned pins transaction and block hashes to literal
// digests. Every archive, report and cross-reference keys on these
// hashes, so a change to how a preimage is assembled must not move a
// single one.
func TestHashValuesPinned(t *testing.T) {
	for _, c := range []struct {
		name string
		got  Hash
		want string
	}{
		{"flash loan with inner hops and payouts", pinnedPayloadTx().Hash(), "1bff285c8808bd793bc1cb9de64e87b23c974bb55dcdb0ace79ba31ac2a31022"},
		{"plain transfer", pinnedTransferTx().Hash(), "762bafc80f8116854bf152dbbc5c4482df14490d18347a59c7b0b4ba1e43513f"},
		{"sealed block of 22 txs", pinnedBlock().Hash(), "e96fe55d28a0d142c2046420c54db71638e259c6c7fcff38fe4a661eb37f4dc1"},
	} {
		if got := hex.EncodeToString(c.got[:]); got != c.want {
			t.Errorf("%s: hash %s, want %s", c.name, got, c.want)
		}
	}
}

// TestHashAllocationFree: hashing a transaction whose preimage fits the
// stack buffer, and sealing a block of up to 32 transactions, allocate
// nothing — every archive decode hashes every transaction it restores.
func TestHashAllocationFree(t *testing.T) {
	flash := &Transaction{Nonce: 3, Payload: Payload{Kind: TxFlashLoan, FlashAmount: 5,
		Inner: &Payload{Kind: TxMultiSwap, Hops: make([]SwapHop, 3)}}}
	for _, tx := range []*Transaction{pinnedTransferTx(), flash} {
		if n := testing.AllocsPerRun(100, func() { tx.ResetHash(); tx.Hash() }); n != 0 {
			t.Errorf("%v: Hash allocates %.1f times, want 0", tx.Payload.Kind, n)
		}
	}
	b := pinnedBlock()
	if n := testing.AllocsPerRun(100, b.Seal); n != 0 {
		t.Errorf("Seal of %d txs allocates %.1f times, want 0", len(b.Txs), n)
	}
}
