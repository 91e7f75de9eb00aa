package types

import (
	"crypto/sha256"
	"encoding/binary"
	"time"
)

// Header carries the consensus fields of a block that the measurement
// pipeline needs: height, timestamp, producer and base fee.
type Header struct {
	Number     uint64
	ParentHash Hash
	Time       time.Time
	Miner      Address
	// BaseFee is zero before the London fork.
	BaseFee  Amount
	GasLimit uint64
	GasUsed  uint64
}

// Block is a sealed set of transactions with their execution receipts.
// Receipts travel with the block because the simulation plays the role of
// an archive node: every historical outcome is queryable.
type Block struct {
	Header   Header
	Txs      []*Transaction
	Receipts []*Receipt

	hash Hash
}

// Seal computes and caches the block hash: SHA-256 of the header fields
// followed by every transaction hash, assembled into one preimage (on the
// stack for blocks of up to blockPreimageStackTxs transactions).
func (b *Block) Seal() {
	var stack [76 + 32*blockPreimageStackTxs]byte
	pre := stack[:0]
	if n := 76 + 32*len(b.Txs); n > len(stack) {
		pre = make([]byte, 0, n)
	}
	pre = binary.BigEndian.AppendUint64(pre, b.Header.Number)
	pre = append(pre, b.Header.ParentHash[:]...)
	pre = binary.BigEndian.AppendUint64(pre, uint64(b.Header.Time.Unix()))
	pre = append(pre, b.Header.Miner[:]...)
	pre = binary.BigEndian.AppendUint64(pre, uint64(b.Header.BaseFee))
	for _, tx := range b.Txs {
		h := tx.Hash()
		pre = append(pre, h[:]...)
	}
	b.hash = sha256.Sum256(pre)
}

// SealWith marks a copy of a sealed block sealed with the hash Seal
// computed for the original, so a header-only copy keeps its block's hash
// without the transactions Seal would need.
func (b *Block) SealWith(h Hash) { b.hash = h }

// blockPreimageStackTxs is how many transaction hashes Seal's stack
// buffer holds.
const blockPreimageStackTxs = 32

// Hash returns the sealed block hash; zero until Seal is called.
func (b *Block) Hash() Hash { return b.hash }

// TxIndex returns the position of the transaction with hash h, or -1.
func (b *Block) TxIndex(h Hash) int {
	for i, tx := range b.Txs {
		if tx.Hash() == h {
			return i
		}
	}
	return -1
}

// ReceiptStatus is the execution outcome of a transaction.
type ReceiptStatus uint8

// Receipt statuses.
const (
	StatusFailed  ReceiptStatus = 0
	StatusSuccess ReceiptStatus = 1
)

// Receipt records the on-chain outcome of executing one transaction.
type Receipt struct {
	TxHash  Hash
	TxIndex int
	Status  ReceiptStatus
	GasUsed uint64
	// EffectiveGasPrice is the realized per-gas price (post-London: base
	// fee + effective tip).
	EffectiveGasPrice Amount
	// CoinbaseTransfer is ETH moved directly to the block producer during
	// execution — how Flashbots searchers pay miners. Zero for ordinary
	// transactions.
	CoinbaseTransfer Amount
	Logs             []Log
}

// Fee returns the total transaction fee paid (gas used times effective
// price).
func (r *Receipt) Fee() Amount {
	return Amount(r.GasUsed) * r.EffectiveGasPrice
}

// Log is an EVM-style event record: an emitting contract address, indexed
// topics and opaque data. Protocol packages provide typed encode/decode
// helpers; detectors consume logs exactly as mev-inspect-style tooling
// consumes archive-node logs.
type Log struct {
	Address Address
	Topics  []Hash
	Data    []byte
}

// EventSignature builds topic-0 for a named event, standing in for the
// Keccak hash of the Solidity event signature.
func EventSignature(name string) Hash { return HashData([]byte("event:" + name)) }
