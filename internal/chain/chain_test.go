package chain

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mevscope/internal/types"
)

func tl() types.Timeline { return types.DefaultTimeline(100) }

func mkBlock(c *Chain, gasUsed uint64) *types.Block {
	b := &types.Block{Header: types.Header{
		Number:   c.NextNumber(),
		Time:     c.Timeline.TimeOfBlock(c.NextNumber()),
		BaseFee:  c.NextBaseFee(),
		GasLimit: c.GasLimit,
		GasUsed:  gasUsed,
	}}
	b.Seal()
	return b
}

func TestAppendValidation(t *testing.T) {
	c := New(tl())
	unsealed := &types.Block{Header: types.Header{Number: c.NextNumber()}}
	if err := c.Append(unsealed); err != ErrUnsealed {
		t.Errorf("unsealed: %v", err)
	}
	wrong := &types.Block{Header: types.Header{Number: 999}}
	wrong.Seal()
	if err := c.Append(wrong); err == nil {
		t.Error("wrong height should fail")
	}
	bad := &types.Block{Header: types.Header{Number: c.NextNumber()}, Txs: []*types.Transaction{{Nonce: 1}}}
	bad.Seal()
	if err := c.Append(bad); err == nil {
		t.Error("receipt mismatch should fail")
	}
	ok := mkBlock(c, 0)
	if err := c.Append(ok); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 || c.Head() != ok {
		t.Error("head")
	}
}

func TestLookups(t *testing.T) {
	c := New(tl())
	tx := &types.Transaction{Nonce: 1, From: types.DeriveAddress("c", 1)}
	b := &types.Block{Header: types.Header{Number: c.NextNumber()}, Txs: []*types.Transaction{tx},
		Receipts: []*types.Receipt{{TxHash: tx.Hash(), Status: types.StatusSuccess}}}
	b.Seal()
	if err := c.Append(b); err != nil {
		t.Fatal(err)
	}
	got, err := c.ByNumber(b.Header.Number)
	if err != nil || got != b {
		t.Error("ByNumber")
	}
	if _, err := c.ByNumber(5); err != ErrNotFound {
		t.Error("ByNumber below start")
	}
	if _, err := c.ByNumber(b.Header.Number + 10); err != ErrNotFound {
		t.Error("ByNumber beyond head")
	}
	got, err = c.ByHash(b.Hash())
	if err != nil || got != b {
		t.Error("ByHash")
	}
	if _, err := c.ByHash(types.Hash{1}); err != ErrNotFound {
		t.Error("ByHash miss")
	}
	loc, ok := c.TxLocation(tx.Hash())
	if !ok || loc.BlockNumber != b.Header.Number || loc.Index != 0 {
		t.Error("TxLocation")
	}
	if !c.HasTx(tx.Hash()) || c.HasTx(types.Hash{2}) {
		t.Error("HasTx")
	}
	r, err := c.Receipt(tx.Hash())
	if err != nil || r.Status != types.StatusSuccess {
		t.Error("Receipt")
	}
	if _, err := c.Receipt(types.Hash{3}); err != ErrNotFound {
		t.Error("Receipt miss")
	}
}

func TestBaseFeePreLondonIsZero(t *testing.T) {
	c := New(tl())
	if c.NextBaseFee() != 0 {
		t.Error("pre-London base fee should be zero")
	}
}

func TestBaseFeeForkActivation(t *testing.T) {
	c := New(tl())
	fork := c.Timeline.LondonForkBlock()
	for c.NextNumber() < fork {
		if c.NextBaseFee() != 0 {
			t.Fatalf("base fee before fork at %d", c.NextNumber())
		}
		if err := c.Append(mkBlock(c, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if c.NextBaseFee() != c.InitialBaseFee {
		t.Errorf("fork block base fee = %v", c.NextBaseFee())
	}
}

func TestBaseFeeAdjustment(t *testing.T) {
	c := New(tl())
	// Fast-forward to the fork.
	for c.NextNumber() < c.Timeline.LondonForkBlock() {
		if err := c.Append(mkBlock(c, 0)); err != nil {
			t.Fatal(err)
		}
	}
	// Full block: base fee rises by 1/8.
	if err := c.Append(mkBlock(c, c.GasLimit)); err != nil {
		t.Fatal(err)
	}
	f1 := c.NextBaseFee()
	want := c.InitialBaseFee + c.InitialBaseFee/8
	if f1 != want {
		t.Errorf("after full block: %v want %v", f1, want)
	}
	// Half-full block (exact target): unchanged.
	if err := c.Append(mkBlock(c, c.GasLimit/2)); err != nil {
		t.Fatal(err)
	}
	if c.NextBaseFee() != f1 {
		t.Errorf("after target block: %v want %v", c.NextBaseFee(), f1)
	}
	// Empty block: decreases by 1/8.
	if err := c.Append(mkBlock(c, 0)); err != nil {
		t.Fatal(err)
	}
	f3 := c.NextBaseFee()
	if f3 >= f1 {
		t.Errorf("after empty block: %v should drop below %v", f3, f1)
	}
	// Never reaches zero even with a long run of empty blocks.
	for i := 0; i < 500; i++ {
		if err := c.Append(mkBlock(c, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if c.NextBaseFee() < 1 {
		t.Error("base fee must floor at 1")
	}
}

func TestRangeAndMonths(t *testing.T) {
	c := New(tl())
	for i := 0; i < 250; i++ { // spans months 0,1 and half of 2
		if err := c.Append(mkBlock(c, 0)); err != nil {
			t.Fatal(err)
		}
	}
	var count int
	c.Range(c.Timeline.StartBlock+10, c.Timeline.StartBlock+19, func(b *types.Block) bool {
		count++
		return true
	})
	if count != 10 {
		t.Errorf("range count = %d", count)
	}
	// Early stop.
	count = 0
	c.Range(c.Timeline.StartBlock, c.Timeline.EndBlock(), func(b *types.Block) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("early stop = %d", count)
	}
	if got := len(c.BlocksInMonth(0)); got != 100 {
		t.Errorf("month 0 = %d blocks", got)
	}
	if got := len(c.BlocksInMonth(2)); got != 50 {
		t.Errorf("month 2 = %d blocks", got)
	}
	if got := len(c.BlocksInMonth(5)); got != 0 {
		t.Errorf("month 5 = %d blocks", got)
	}
}

// TestBlocksInMonthSlicesTheChain: a month's blocks, and any Range, are
// exactly a filter of Blocks() by number, for a full-window chain and for
// one whose timeline starts at a later month (TimelineFrom). Months
// before the timeline's first, where FirstBlockOfMonth is 0, and months
// past the head are empty. A month is a capped window of the block list:
// taking one allocates nothing.
func TestBlocksInMonthSlicesTheChain(t *testing.T) {
	const bpm = 10
	full := New(types.DefaultTimeline(bpm))
	for full.NextNumber() <= full.Timeline.EndBlock() {
		if err := full.Append(mkBlock(full, 0)); err != nil {
			t.Fatal(err)
		}
	}
	late := New(types.TimelineFrom(bpm, 15))
	for i := 0; i < 2*bpm+bpm/2; i++ { // months 15, 16 and half of 17
		if err := late.Append(mkBlock(late, 0)); err != nil {
			t.Fatal(err)
		}
	}
	same := func(got, want []*types.Block) bool {
		if len(got) != len(want) || cap(got) != len(got) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	for _, c := range []*Chain{full, late} {
		tl := c.Timeline
		for m := types.Month(0); m < types.StudyMonths+2; m++ {
			var want []*types.Block
			for _, b := range c.Blocks() {
				if m >= tl.FirstMonth && tl.MonthOfBlock(b.Header.Number) == m {
					want = append(want, b)
				}
			}
			if got := c.BlocksInMonth(m); !same(got, want) {
				t.Errorf("first month %d: month %d = %d blocks (cap %d), want %d",
					tl.FirstMonth, m, len(got), cap(got), len(want))
			}
		}
		start, head := tl.StartBlock, c.Head().Header.Number
		for _, r := range [][2]uint64{
			{0, start - 1}, {0, start}, {start + 3, start + 17}, {head - 2, head + 50},
			{head + 1, head + 9}, {start + 5, start + 4}, {0, ^uint64(0)},
		} {
			var got, want []*types.Block
			c.Range(r[0], r[1], func(b *types.Block) bool { got = append(got, b); return true })
			for _, b := range c.Blocks() {
				if n := b.Header.Number; n >= r[0] && n <= r[1] {
					want = append(want, b)
				}
			}
			if len(got) != len(want) || (len(got) > 0 && (got[0] != want[0] || got[len(got)-1] != want[len(want)-1])) {
				t.Errorf("first month %d: Range(%d, %d) = %d blocks, want %d", tl.FirstMonth, r[0], r[1], len(got), len(want))
			}
		}
		if allocs := testing.AllocsPerRun(20, func() {
			for m := types.Month(0); m < types.StudyMonths; m++ {
				c.BlocksInMonth(m)
			}
		}); allocs != 0 {
			t.Errorf("first month %d: BlocksInMonth over every month allocates %.1f times, want 0", tl.FirstMonth, allocs)
		}
	}
}

func TestEachLog(t *testing.T) {
	c := New(tl())
	tx := &types.Transaction{Nonce: 1}
	rcpt := &types.Receipt{TxHash: tx.Hash(), Logs: []types.Log{
		{Topics: []types.Hash{types.EventSignature("A")}},
		{Topics: []types.Hash{types.EventSignature("B")}},
	}}
	b := &types.Block{Header: types.Header{Number: c.NextNumber()}, Txs: []*types.Transaction{tx}, Receipts: []*types.Receipt{rcpt}}
	b.Seal()
	if err := c.Append(b); err != nil {
		t.Fatal(err)
	}
	var n int
	c.EachLog(c.Timeline.StartBlock, c.Timeline.EndBlock(), func(b *types.Block, txIdx int, l types.Log) {
		if txIdx != 0 {
			t.Error("txIdx")
		}
		n++
	})
	if n != 2 {
		t.Errorf("log count = %d", n)
	}
}

// Property: however blocks fill, the base fee never moves more than 1/8
// per block and never hits zero after London.
func TestBaseFeeBoundedProperty(t *testing.T) {
	f := func(seed int64, steps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(tl())
		for c.NextNumber() < c.Timeline.LondonForkBlock() {
			if err := c.Append(mkBlock(c, 0)); err != nil {
				return false
			}
		}
		prev := types.Amount(0)
		for i := 0; i < int(steps)+3; i++ {
			used := uint64(rng.Int63n(int64(c.GasLimit + 1)))
			fee := c.NextBaseFee()
			if fee < 1 {
				return false
			}
			if prev > 0 {
				hi := prev + prev/8 + 1
				lo := prev - prev/8 - 1
				if fee > hi || fee < lo {
					return false
				}
			}
			prev = fee
			if err := c.Append(mkBlock(c, used)); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
