package types

import (
	"crypto/sha256"
	"encoding/binary"
)

// TxKind labels the high-level shape of a transaction's payload. It stands
// in for contract call data: the executor dispatches on it, but detectors
// never read it — they work from receipts and logs like the paper's
// archive-node crawlers.
type TxKind uint8

// Transaction payload kinds.
const (
	TxTransfer      TxKind = iota // plain ETH transfer
	TxTokenTransfer               // ERC-20 transfer
	TxSwap                        // single DEX swap
	TxMultiSwap                   // multi-hop swap path (arbitrage shape)
	TxLiquidate                   // lending-pool liquidation
	TxFlashLoan                   // flash loan wrapping inner swaps/liquidation
	TxOracleUpdate                // price oracle update
	TxMinerPayout                 // mining-pool payout batch
	TxAddLiquidity                // seed or grow an AMM pool
	TxNoop                        // padding / contract deployment stand-in
)

// String names the transaction kind.
func (k TxKind) String() string {
	switch k {
	case TxTransfer:
		return "transfer"
	case TxTokenTransfer:
		return "token-transfer"
	case TxSwap:
		return "swap"
	case TxMultiSwap:
		return "multi-swap"
	case TxLiquidate:
		return "liquidate"
	case TxFlashLoan:
		return "flash-loan"
	case TxOracleUpdate:
		return "oracle-update"
	case TxMinerPayout:
		return "miner-payout"
	case TxAddLiquidity:
		return "add-liquidity"
	case TxNoop:
		return "noop"
	default:
		return "unknown"
	}
}

// Payload carries the action-specific parameters of a transaction. Exactly
// one field group is meaningful for a given TxKind; the executor validates.
type Payload struct {
	Kind TxKind

	// Transfer / TokenTransfer
	Token     Address // zero for plain ETH
	Recipient Address
	Amount    Amount

	// Swap / MultiSwap: the path alternates venue-scoped hops.
	Hops []SwapHop
	// AmountIn is the exact input amount for the first hop.
	AmountIn Amount
	// MinOut aborts (reverts) the swap if the final output is below it;
	// models slippage protection.
	MinOut Amount

	// Liquidate
	Protocol Address // lending protocol
	LoanID   uint64
	Repay    Amount

	// FlashLoan: borrowed asset and amount; Inner executes atomically with
	// the borrowed funds (arbitrage hops or a liquidation).
	FlashToken  Address
	FlashAmount Amount
	Inner       *Payload

	// OracleUpdate
	OracleToken Address
	// OraclePrice is the new token price in Amount of ETH per whole token.
	OraclePrice Amount

	// MinerPayout / batch recipients
	Payouts []PayoutEntry

	// AddLiquidity
	Venue          Address
	TokenA, TokenB Address
	AmountA        Amount
	AmountB        Amount
}

// SwapHop is one step of a swap path on a specific AMM venue.
type SwapHop struct {
	Venue    Address
	TokenIn  Address
	TokenOut Address
}

// PayoutEntry is one recipient of a mining-pool payout batch.
type PayoutEntry struct {
	To     Address
	Amount Amount
}

// Transaction is a signed (by construction) message from an account.
// Pre-London transactions use GasPrice; post-London ones use the
// FeeCap/TipCap pair and GasPrice is ignored.
type Transaction struct {
	Nonce    uint64
	From     Address
	To       Address
	Value    Amount
	GasLimit uint64

	// Legacy gas price (pre-London, and accepted post-London as
	// FeeCap=TipCap=GasPrice).
	GasPrice Amount
	// EIP-1559 fields; zero means legacy pricing.
	FeeCap Amount
	TipCap Amount

	Payload Payload

	// CoinbaseTip is ETH transferred directly to the block producer during
	// execution — the Flashbots "pay the miner via coinbase transfer"
	// mechanism. It is visible in receipts as a coinbase transfer.
	CoinbaseTip Amount

	// hash caches the first Hash() result. Populate it (by calling Hash)
	// before sharing the transaction across goroutines.
	hash Hash
}

// Hash returns the transaction hash, computed on first call and cached.
// The preimage is the fixed header fields followed by the payload digest
// (appendPayloadDigest), built in a stack buffer and hashed in one
// sha256.Sum256 call, so hashing allocates nothing unless a payload's
// hops, payouts or nesting outgrow the buffer.
func (tx *Transaction) Hash() Hash {
	if !tx.hash.IsZero() {
		return tx.hash
	}
	var stack [txPreimageStack]byte
	b := appendU64(stack[:0], tx.Nonce)
	b = append(b, tx.From[:]...)
	b = append(b, tx.To[:]...)
	b = appendU64(b, uint64(tx.Value))
	b = appendU64(b, tx.GasLimit)
	b = appendU64(b, uint64(tx.GasPrice))
	b = appendU64(b, uint64(tx.FeeCap))
	b = appendU64(b, uint64(tx.TipCap))
	b = appendU64(b, uint64(tx.CoinbaseTip))
	b = append(b, byte(tx.Payload.Kind))
	tx.hash = sha256.Sum256(appendPayloadDigest(b, &tx.Payload))
	return tx.hash
}

// txPreimageStack sizes Hash's stack buffer: the 97-byte header plus a
// flash loan wrapping a multi-hop swap (two 137-byte payload digests and
// a few 12-byte hops) fit.
const txPreimageStack = 512

// appendPayloadDigest appends p's digest to b: every field in a fixed
// order, addresses of the venue-scoped fields truncated to 4 bytes, then
// the inner payload's digest.
func appendPayloadDigest(b []byte, p *Payload) []byte {
	b = append(b, byte(p.Kind))
	b = append(b, p.Token[:]...)
	b = append(b, p.Recipient[:]...)
	b = appendU64(b, uint64(p.Amount))
	b = appendU64(b, uint64(p.AmountIn))
	b = appendU64(b, uint64(p.MinOut))
	for _, h := range p.Hops {
		b = append(b, h.Venue[:4]...)
		b = append(b, h.TokenIn[:4]...)
		b = append(b, h.TokenOut[:4]...)
	}
	b = append(b, p.Protocol[:4]...)
	b = appendU64(b, p.LoanID)
	b = appendU64(b, uint64(p.Repay))
	b = append(b, p.FlashToken[:4]...)
	b = appendU64(b, uint64(p.FlashAmount))
	b = append(b, p.OracleToken[:4]...)
	b = appendU64(b, uint64(p.OraclePrice))
	for _, e := range p.Payouts {
		b = append(b, e.To[:4]...)
		b = appendU64(b, uint64(e.Amount))
	}
	b = append(b, p.Venue[:4]...)
	b = append(b, p.TokenA[:4]...)
	b = append(b, p.TokenB[:4]...)
	b = appendU64(b, uint64(p.AmountA))
	b = appendU64(b, uint64(p.AmountB))
	if p.Inner != nil {
		b = appendPayloadDigest(b, p.Inner)
	}
	return b
}

func appendU64(b []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(b, v)
}

// ResetHash clears the cached hash after a field mutation (e.g. a gas
// auction re-bid before broadcast).
func (tx *Transaction) ResetHash() { tx.hash = Hash{} }

// EffectiveGasPrice returns the per-gas price actually paid given a block
// base fee, following EIP-1559. With baseFee zero (pre-London) the legacy
// GasPrice applies.
func (tx *Transaction) EffectiveGasPrice(baseFee Amount) Amount {
	if tx.FeeCap == 0 && tx.TipCap == 0 {
		return tx.GasPrice
	}
	p := baseFee + tx.TipCap
	if p > tx.FeeCap {
		p = tx.FeeCap
	}
	return p
}

// EffectiveTip returns the portion of the gas price that goes to the block
// producer (effective price minus the burned base fee), clamped at zero.
func (tx *Transaction) EffectiveTip(baseFee Amount) Amount {
	t := tx.EffectiveGasPrice(baseFee) - baseFee
	if t < 0 {
		return 0
	}
	return t
}

// BidPrice is the gas price a miner uses to rank the transaction before
// knowing the base fee; mempools order by it.
func (tx *Transaction) BidPrice() Amount {
	if tx.FeeCap == 0 && tx.TipCap == 0 {
		return tx.GasPrice
	}
	return tx.FeeCap
}
