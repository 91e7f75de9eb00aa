// Package events defines the typed event-log vocabulary of the simulated
// protocols and the encode/decode helpers for each event.
//
// The layout imitates Solidity event logs: topic 0 is the event signature,
// indexed parameters occupy the remaining topics, and value parameters are
// packed into Data. Detection code decodes logs with these helpers exactly
// the way mev-inspect-style tools decode archive-node logs; nothing else
// about the simulation is visible to it.
package events

import (
	"encoding/binary"
	"unsafe"

	"mevscope/internal/types"
)

// Event signatures (topic 0 values).
var (
	SigTransfer = types.EventSignature("Transfer(address,address,uint256)")
	// SigSwap covers all AMM venues (the paper's detectors treat swap
	// events from every exchange uniformly).
	SigSwap = types.EventSignature("Swap(address,address,address,address,uint256,uint256)")
	SigSync = types.EventSignature("Sync(uint112,uint112)")
	// SigLiquidationCall is Aave's liquidation event.
	SigLiquidationCall = types.EventSignature("LiquidationCall(address,address,address,uint256,uint256)")
	// SigLiquidateBorrow is Compound's liquidation event.
	SigLiquidateBorrow = types.EventSignature("LiquidateBorrow(address,address,uint256,address,uint256)")
	SigFlashLoan       = types.EventSignature("FlashLoan(address,address,uint256,uint256)")
	SigOracleUpdate    = types.EventSignature("AnswerUpdated(int256,uint256,uint256)")
)

func amt(b []byte, off int) types.Amount {
	if off+8 > len(b) {
		return 0
	}
	return types.Amount(binary.BigEndian.Uint64(b[off : off+8]))
}

func putAmt(b []byte, off int, a types.Amount) {
	binary.BigEndian.PutUint64(b[off:off+8], uint64(a))
}

// Arena cuts the topic and data slices of encoded logs from shared
// slabs, so a decoder that rebuilds thousands of logs allocates a few
// large arrays instead of two small ones per log. The zero Arena is
// ready to use, and a nil *Arena allocates every slice on its own. Each
// slice it returns is capped at its length, so appending to one log's
// topics or data never writes into another's. An Arena is not safe for
// concurrent use, and a slab stays live while any log cut from it does.
type Arena struct {
	topics []types.Hash // unused tail of the current topic slab
	data   []byte       // unused tail of the current data slab
	bytes  int64        // size of every array allocated so far
}

// Slab sizes: 16 KiB of topics and 8 KiB of data. A request larger
// than a slab gets its own array.
const (
	arenaTopicSlab = 512
	arenaDataSlab  = 8 << 10
)

// Topics returns n zeroed topic slots.
func (a *Arena) Topics(n int) []types.Hash {
	if a == nil {
		return make([]types.Hash, n)
	}
	if n > arenaTopicSlab {
		a.bytes += int64(n) * int64(unsafe.Sizeof(types.Hash{}))
		return make([]types.Hash, n)
	}
	if n > len(a.topics) {
		a.topics = make([]types.Hash, arenaTopicSlab)
		a.bytes += arenaTopicSlab * int64(unsafe.Sizeof(types.Hash{}))
	}
	t := a.topics[:n:n]
	a.topics = a.topics[n:]
	return t
}

// Data returns n zeroed data bytes.
func (a *Arena) Data(n int) []byte {
	if a == nil {
		return make([]byte, n)
	}
	if n > arenaDataSlab {
		a.bytes += int64(n)
		return make([]byte, n)
	}
	if n > len(a.data) {
		a.data = make([]byte, arenaDataSlab)
		a.bytes += arenaDataSlab
	}
	d := a.data[:n:n]
	a.data = a.data[n:]
	return d
}

// Bytes is the size of every array the arena has allocated: its slabs,
// the unused tails included, and the requests too large for a slab.
func (a *Arena) Bytes() int64 { return a.bytes }

// newLog builds a log of the given emitter and topics with a zeroed
// data field of n bytes, all cut from a.
func newLog(a *Arena, addr types.Address, n int, topics ...types.Hash) types.Log {
	t := a.Topics(len(topics))
	copy(t, topics)
	return types.Log{Address: addr, Topics: t, Data: a.Data(n)}
}

// Transfer is an ERC-20 transfer event emitted by the token contract.
type Transfer struct {
	Token    types.Address // emitting contract
	From, To types.Address
	Amount   types.Amount
}

// Log encodes the event.
func (e Transfer) Log() types.Log { return e.LogIn(nil) }

// LogIn encodes the event with its topics and data cut from a.
func (e Transfer) LogIn(a *Arena) types.Log {
	l := newLog(a, e.Token, 8, SigTransfer, e.From.Hash(), e.To.Hash())
	putAmt(l.Data, 0, e.Amount)
	return l
}

// DecodeTransfer parses a Transfer event; ok is false for other logs.
func DecodeTransfer(l types.Log) (Transfer, bool) {
	if len(l.Topics) != 3 || l.Topics[0] != SigTransfer {
		return Transfer{}, false
	}
	return Transfer{
		Token:  l.Address,
		From:   types.AddressFromHash(l.Topics[1]),
		To:     types.AddressFromHash(l.Topics[2]),
		Amount: amt(l.Data, 0),
	}, true
}

// Swap is a DEX trade event emitted by the pool contract.
type Swap struct {
	Pool      types.Address // emitting pool contract
	Sender    types.Address // account that initiated the swap
	Recipient types.Address
	TokenIn   types.Address
	TokenOut  types.Address
	AmountIn  types.Amount
	AmountOut types.Amount
}

// Log encodes the event.
func (e Swap) Log() types.Log { return e.LogIn(nil) }

// LogIn encodes the event with its topics and data cut from a.
func (e Swap) LogIn(a *Arena) types.Log {
	l := newLog(a, e.Pool, 20+20+8+8, SigSwap, e.Sender.Hash(), e.Recipient.Hash())
	copy(l.Data[0:], e.TokenIn[:])
	copy(l.Data[20:], e.TokenOut[:])
	putAmt(l.Data, 40, e.AmountIn)
	putAmt(l.Data, 48, e.AmountOut)
	return l
}

// DecodeSwap parses a Swap event; ok is false for other logs.
func DecodeSwap(l types.Log) (Swap, bool) {
	if len(l.Topics) != 3 || l.Topics[0] != SigSwap || len(l.Data) < 56 {
		return Swap{}, false
	}
	return Swap{
		Pool:      l.Address,
		Sender:    types.AddressFromHash(l.Topics[1]),
		Recipient: types.AddressFromHash(l.Topics[2]),
		TokenIn:   types.BytesToAddress(l.Data[0:20]),
		TokenOut:  types.BytesToAddress(l.Data[20:40]),
		AmountIn:  amt(l.Data, 40),
		AmountOut: amt(l.Data, 48),
	}, true
}

// Sync reports pool reserves after a swap or liquidity change.
type Sync struct {
	Pool               types.Address
	ReserveA, ReserveB types.Amount
}

// Log encodes the event.
func (e Sync) Log() types.Log { return e.LogIn(nil) }

// LogIn encodes the event with its topics and data cut from a.
func (e Sync) LogIn(a *Arena) types.Log {
	l := newLog(a, e.Pool, 16, SigSync)
	putAmt(l.Data, 0, e.ReserveA)
	putAmt(l.Data, 8, e.ReserveB)
	return l
}

// DecodeSync parses a Sync event; ok is false for other logs.
func DecodeSync(l types.Log) (Sync, bool) {
	if len(l.Topics) != 1 || l.Topics[0] != SigSync || len(l.Data) < 16 {
		return Sync{}, false
	}
	return Sync{Pool: l.Address, ReserveA: amt(l.Data, 0), ReserveB: amt(l.Data, 8)}, true
}

// Liquidation is a lending-protocol liquidation event. Aave emits it as
// LiquidationCall, Compound as LiquidateBorrow; Compound reports its own
// signature via the Compound flag.
type Liquidation struct {
	Protocol        types.Address // emitting lending pool
	Liquidator      types.Address
	Borrower        types.Address
	DebtToken       types.Address
	CollateralToken types.Address
	DebtRepaid      types.Amount
	CollateralOut   types.Amount
	Compound        bool
}

// Log encodes the event with the protocol-appropriate signature.
func (e Liquidation) Log() types.Log { return e.LogIn(nil) }

// LogIn encodes the event with its topics and data cut from a.
func (e Liquidation) LogIn(a *Arena) types.Log {
	sig := SigLiquidationCall
	if e.Compound {
		sig = SigLiquidateBorrow
	}
	l := newLog(a, e.Protocol, 20+20+8+8, sig, e.Liquidator.Hash(), e.Borrower.Hash())
	copy(l.Data[0:], e.DebtToken[:])
	copy(l.Data[20:], e.CollateralToken[:])
	putAmt(l.Data, 40, e.DebtRepaid)
	putAmt(l.Data, 48, e.CollateralOut)
	return l
}

// DecodeLiquidation parses either liquidation event; ok is false otherwise.
func DecodeLiquidation(l types.Log) (Liquidation, bool) {
	if len(l.Topics) != 3 || len(l.Data) < 56 {
		return Liquidation{}, false
	}
	var compound bool
	switch l.Topics[0] {
	case SigLiquidationCall:
	case SigLiquidateBorrow:
		compound = true
	default:
		return Liquidation{}, false
	}
	return Liquidation{
		Protocol:        l.Address,
		Liquidator:      types.AddressFromHash(l.Topics[1]),
		Borrower:        types.AddressFromHash(l.Topics[2]),
		DebtToken:       types.BytesToAddress(l.Data[0:20]),
		CollateralToken: types.BytesToAddress(l.Data[20:40]),
		DebtRepaid:      amt(l.Data, 40),
		CollateralOut:   amt(l.Data, 48),
		Compound:        compound,
	}, true
}

// FlashLoan is emitted by a lending protocol when a flash loan completes
// successfully (the detection technique of Wang et al.).
type FlashLoan struct {
	Protocol  types.Address
	Initiator types.Address
	Token     types.Address
	Amount    types.Amount
	Fee       types.Amount
}

// Log encodes the event.
func (e FlashLoan) Log() types.Log { return e.LogIn(nil) }

// LogIn encodes the event with its topics and data cut from a.
func (e FlashLoan) LogIn(a *Arena) types.Log {
	l := newLog(a, e.Protocol, 20+8+8, SigFlashLoan, e.Initiator.Hash())
	copy(l.Data[0:], e.Token[:])
	putAmt(l.Data, 20, e.Amount)
	putAmt(l.Data, 28, e.Fee)
	return l
}

// DecodeFlashLoan parses a FlashLoan event; ok is false for other logs.
func DecodeFlashLoan(l types.Log) (FlashLoan, bool) {
	if len(l.Topics) != 2 || l.Topics[0] != SigFlashLoan || len(l.Data) < 36 {
		return FlashLoan{}, false
	}
	return FlashLoan{
		Protocol:  l.Address,
		Initiator: types.AddressFromHash(l.Topics[1]),
		Token:     types.BytesToAddress(l.Data[0:20]),
		Amount:    amt(l.Data, 20),
		Fee:       amt(l.Data, 28),
	}, true
}

// OracleUpdate is a price-feed answer update.
type OracleUpdate struct {
	Oracle types.Address
	Token  types.Address
	// Price is ETH per whole token in Amount base units.
	Price types.Amount
}

// Log encodes the event.
func (e OracleUpdate) Log() types.Log { return e.LogIn(nil) }

// LogIn encodes the event with its topics and data cut from a.
func (e OracleUpdate) LogIn(a *Arena) types.Log {
	l := newLog(a, e.Oracle, 20+8, SigOracleUpdate)
	copy(l.Data[0:], e.Token[:])
	putAmt(l.Data, 20, e.Price)
	return l
}

// DecodeOracleUpdate parses an oracle update; ok is false for other logs.
func DecodeOracleUpdate(l types.Log) (OracleUpdate, bool) {
	if len(l.Topics) != 1 || l.Topics[0] != SigOracleUpdate || len(l.Data) < 28 {
		return OracleUpdate{}, false
	}
	return OracleUpdate{
		Oracle: l.Address,
		Token:  types.BytesToAddress(l.Data[0:20]),
		Price:  amt(l.Data, 20),
	}, true
}
