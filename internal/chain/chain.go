// Package chain is the simulated blockchain store — the stand-in for the
// paper's go-ethereum archive node. It holds every sealed block with its
// receipts, provides the query surface the measurement pipeline crawls
// (blocks, transactions, logs, by height or hash), and evolves the
// EIP-1559 base fee across the London fork.
package chain

import (
	"errors"
	"fmt"

	"mevscope/internal/types"
)

// Errors returned by chain operations.
var (
	ErrNotFound     = errors.New("chain: not found")
	ErrBadParent    = errors.New("chain: block does not extend the head")
	ErrUnsealed     = errors.New("chain: block is not sealed")
	ErrReceiptCount = errors.New("chain: receipt count does not match transactions")
)

// TxLocation points at a transaction's position on chain.
type TxLocation struct {
	BlockNumber uint64
	Index       int
}

// Chain is an append-only block store with full receipt history.
type Chain struct {
	Timeline types.Timeline

	blocks  []*types.Block
	byHash  map[types.Hash]*types.Block
	txIndex map[types.Hash]TxLocation

	// InitialBaseFee is the base fee of the first post-London block.
	InitialBaseFee types.Amount
	// GasLimit is the per-block gas limit used for base-fee targeting.
	GasLimit uint64
}

// New creates an empty chain over the timeline.
func New(tl types.Timeline) *Chain { return NewSized(tl, 0) }

// NewSized creates an empty chain over the timeline presized for n
// blocks, so appending them grows neither the block list nor the hash
// index.
func NewSized(tl types.Timeline, n int) *Chain {
	c := &Chain{
		Timeline:       tl,
		byHash:         make(map[types.Hash]*types.Block, n),
		txIndex:        make(map[types.Hash]TxLocation),
		InitialBaseFee: 50 * types.Gwei,
		GasLimit:       15_000_000,
	}
	if n > 0 {
		c.blocks = make([]*types.Block, 0, n)
	}
	return c
}

// Len is the number of stored blocks.
func (c *Chain) Len() int { return len(c.blocks) }

// Head returns the latest block, or nil when empty.
func (c *Chain) Head() *types.Block {
	if len(c.blocks) == 0 {
		return nil
	}
	return c.blocks[len(c.blocks)-1]
}

// NextNumber is the height the next appended block must carry.
func (c *Chain) NextNumber() uint64 {
	if h := c.Head(); h != nil {
		return h.Header.Number + 1
	}
	return c.Timeline.StartBlock
}

// londonActive reports whether a height uses EIP-1559 pricing.
func (c *Chain) londonActive(number uint64) bool {
	return number >= c.Timeline.LondonForkBlock()
}

// NextBaseFee computes the base fee for the next block per EIP-1559:
// zero before London, the initial base fee at the fork, then adjusted by
// up to ±1/8 toward the half-full gas target.
func (c *Chain) NextBaseFee() types.Amount {
	next := c.NextNumber()
	if !c.londonActive(next) {
		return 0
	}
	head := c.Head()
	if head == nil || !c.londonActive(head.Header.Number) {
		return c.InitialBaseFee
	}
	parent := head.Header
	target := parent.GasLimit / 2
	if target == 0 {
		return parent.BaseFee
	}
	if parent.GasUsed == target {
		return parent.BaseFee
	}
	if parent.GasUsed > target {
		delta := parent.BaseFee.MulDiv(types.Amount(parent.GasUsed-target), types.Amount(target)) / 8
		if delta < 1 {
			delta = 1
		}
		return parent.BaseFee + delta
	}
	delta := parent.BaseFee.MulDiv(types.Amount(target-parent.GasUsed), types.Amount(target)) / 8
	fee := parent.BaseFee - delta
	if fee < 1 {
		fee = 1 // base fee floors at 1 unit, never zero post-London
	}
	return fee
}

// Append validates and stores a sealed block extending the head.
func (c *Chain) Append(b *types.Block) error {
	if b.Hash().IsZero() {
		return ErrUnsealed
	}
	if b.Header.Number != c.NextNumber() {
		return fmt.Errorf("%w: got %d want %d", ErrBadParent, b.Header.Number, c.NextNumber())
	}
	if len(b.Receipts) != len(b.Txs) {
		return fmt.Errorf("%w: %d receipts, %d txs", ErrReceiptCount, len(b.Receipts), len(b.Txs))
	}
	c.blocks = append(c.blocks, b)
	c.byHash[b.Hash()] = b
	for i, tx := range b.Txs {
		c.txIndex[tx.Hash()] = TxLocation{BlockNumber: b.Header.Number, Index: i}
	}
	return nil
}

// ByNumber returns the block at a height.
func (c *Chain) ByNumber(n uint64) (*types.Block, error) {
	if n < c.Timeline.StartBlock {
		return nil, ErrNotFound
	}
	i := n - c.Timeline.StartBlock
	if i >= uint64(len(c.blocks)) {
		return nil, ErrNotFound
	}
	return c.blocks[i], nil
}

// ByHash returns a block by its hash.
func (c *Chain) ByHash(h types.Hash) (*types.Block, error) {
	b, ok := c.byHash[h]
	if !ok {
		return nil, ErrNotFound
	}
	return b, nil
}

// TxLocation returns where a transaction landed on chain.
func (c *Chain) TxLocation(h types.Hash) (TxLocation, bool) {
	loc, ok := c.txIndex[h]
	return loc, ok
}

// HasTx reports whether the transaction is on chain.
func (c *Chain) HasTx(h types.Hash) bool {
	_, ok := c.txIndex[h]
	return ok
}

// Receipt returns the receipt for a mined transaction.
func (c *Chain) Receipt(h types.Hash) (*types.Receipt, error) {
	loc, ok := c.txIndex[h]
	if !ok {
		return nil, ErrNotFound
	}
	b, err := c.ByNumber(loc.BlockNumber)
	if err != nil {
		return nil, err
	}
	return b.Receipts[loc.Index], nil
}

// Blocks returns the full chain in ascending height order. The slice is
// shared; callers must not mutate it.
func (c *Chain) Blocks() []*types.Block { return c.blocks }

// Range iterates blocks with numbers in [from, to] (inclusive), calling fn
// for each; fn returning false stops early.
func (c *Chain) Range(from, to uint64, fn func(*types.Block) bool) {
	for _, b := range c.span(from, to) {
		if !fn(b) {
			return
		}
	}
}

// span returns the stored blocks numbered in [from, to] as a capped
// sub-slice of the block list. Append keeps the numbers contiguous from
// Timeline.StartBlock, so a number is an index and no block outside the
// range is touched.
func (c *Chain) span(from, to uint64) []*types.Block {
	start := c.Timeline.StartBlock
	if to < start || from > to {
		return nil
	}
	var lo uint64
	if from > start {
		lo = from - start
	}
	n := uint64(len(c.blocks))
	hi := to - start
	if hi >= n {
		hi = n
	} else {
		hi++
	}
	if lo >= hi {
		return nil
	}
	return c.blocks[lo:hi:hi]
}

// BlocksInMonth returns the blocks minted during a study month, nil for
// a month before the timeline's first or past the head. The slice is
// shared and capped: callers must not write its elements, and appending
// to it copies.
func (c *Chain) BlocksInMonth(m types.Month) []*types.Block {
	if m < c.Timeline.FirstMonth {
		return nil
	}
	from := c.Timeline.FirstBlockOfMonth(m)
	return c.span(from, from+c.Timeline.BlocksPerMonth-1)
}

// EachLog walks every log in a block range, passing the enclosing block,
// transaction index and log.
func (c *Chain) EachLog(from, to uint64, fn func(b *types.Block, txIdx int, l types.Log)) {
	c.Range(from, to, func(b *types.Block) bool {
		for i, rcpt := range b.Receipts {
			for _, l := range rcpt.Logs {
				fn(b, i, l)
			}
		}
		return true
	})
}
