package events

import (
	"reflect"
	"testing"
	"testing/quick"

	"mevscope/internal/types"
)

func a(i uint64) types.Address { return types.DeriveAddress("evt", i) }

func TestTransferRoundtrip(t *testing.T) {
	e := Transfer{Token: a(1), From: a(2), To: a(3), Amount: 12345}
	got, ok := DecodeTransfer(e.Log())
	if !ok || got != e {
		t.Errorf("roundtrip: got %+v ok=%v", got, ok)
	}
}

func TestSwapRoundtrip(t *testing.T) {
	e := Swap{Pool: a(1), Sender: a(2), Recipient: a(2), TokenIn: a(4), TokenOut: a(5), AmountIn: 100, AmountOut: 97}
	got, ok := DecodeSwap(e.Log())
	if !ok || got != e {
		t.Errorf("roundtrip: got %+v ok=%v", got, ok)
	}
}

func TestSyncRoundtrip(t *testing.T) {
	e := Sync{Pool: a(1), ReserveA: 11, ReserveB: 22}
	got, ok := DecodeSync(e.Log())
	if !ok || got != e {
		t.Errorf("roundtrip: got %+v ok=%v", got, ok)
	}
}

func TestLiquidationRoundtrip(t *testing.T) {
	for _, compound := range []bool{false, true} {
		e := Liquidation{
			Protocol: a(1), Liquidator: a(2), Borrower: a(3),
			DebtToken: a(4), CollateralToken: a(5),
			DebtRepaid: 1000, CollateralOut: 1100, Compound: compound,
		}
		got, ok := DecodeLiquidation(e.Log())
		if !ok || got != e {
			t.Errorf("compound=%v roundtrip: got %+v ok=%v", compound, got, ok)
		}
	}
}

func TestFlashLoanRoundtrip(t *testing.T) {
	e := FlashLoan{Protocol: a(1), Initiator: a(2), Token: a(3), Amount: 500, Fee: 2}
	got, ok := DecodeFlashLoan(e.Log())
	if !ok || got != e {
		t.Errorf("roundtrip: got %+v ok=%v", got, ok)
	}
}

func TestOracleUpdateRoundtrip(t *testing.T) {
	e := OracleUpdate{Oracle: a(1), Token: a(2), Price: types.Ether / 2}
	got, ok := DecodeOracleUpdate(e.Log())
	if !ok || got != e {
		t.Errorf("roundtrip: got %+v ok=%v", got, ok)
	}
}

func TestCrossDecodeRejects(t *testing.T) {
	logs := []types.Log{
		Transfer{Token: a(1), From: a(2), To: a(3), Amount: 1}.Log(),
		Swap{Pool: a(1), Sender: a(2), Recipient: a(2), TokenIn: a(3), TokenOut: a(4), AmountIn: 1, AmountOut: 1}.Log(),
		Sync{Pool: a(1)}.Log(),
		Liquidation{Protocol: a(1), Liquidator: a(2), Borrower: a(3)}.Log(),
		FlashLoan{Protocol: a(1), Initiator: a(2), Token: a(3)}.Log(),
		OracleUpdate{Oracle: a(1), Token: a(2)}.Log(),
	}
	for i, l := range logs {
		n := 0
		if _, ok := DecodeTransfer(l); ok {
			n++
		}
		if _, ok := DecodeSwap(l); ok {
			n++
		}
		if _, ok := DecodeSync(l); ok {
			n++
		}
		if _, ok := DecodeLiquidation(l); ok {
			n++
		}
		if _, ok := DecodeFlashLoan(l); ok {
			n++
		}
		if _, ok := DecodeOracleUpdate(l); ok {
			n++
		}
		if n != 1 {
			t.Errorf("log %d decoded by %d decoders, want exactly 1", i, n)
		}
	}
}

func TestDecodeRejectsTruncatedData(t *testing.T) {
	l := Swap{Pool: a(1), Sender: a(2), Recipient: a(2), TokenIn: a(3), TokenOut: a(4), AmountIn: 1, AmountOut: 1}.Log()
	l.Data = l.Data[:10]
	if _, ok := DecodeSwap(l); ok {
		t.Error("truncated swap should not decode")
	}
	l2 := Liquidation{Protocol: a(1), Liquidator: a(2), Borrower: a(3)}.Log()
	l2.Data = nil
	if _, ok := DecodeLiquidation(l2); ok {
		t.Error("truncated liquidation should not decode")
	}
}

// Property: Swap encode/decode is the identity over arbitrary field values.
func TestSwapRoundtripProperty(t *testing.T) {
	f := func(p, s, ti, to uint64, in, out int64) bool {
		e := Swap{
			Pool: a(p), Sender: a(s), Recipient: a(s),
			TokenIn: a(ti), TokenOut: a(to),
			AmountIn: types.Amount(in & 0x7fffffffffffffff), AmountOut: types.Amount(out & 0x7fffffffffffffff),
		}
		got, ok := DecodeSwap(e.Log())
		return ok && got == e
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestLogInArena: an arena-cut log equals the one Log builds, for every
// event shape, and its slices are capped so an append to one log cannot
// overwrite the next one cut from the same slab.
func TestLogInArena(t *testing.T) {
	evs := []interface{ LogIn(*Arena) types.Log }{
		Transfer{Token: a(1), From: a(2), To: a(3), Amount: 4},
		Swap{Pool: a(1), Sender: a(2), Recipient: a(5), TokenIn: a(3), TokenOut: a(4), AmountIn: 6, AmountOut: 7},
		Sync{Pool: a(1), ReserveA: 8, ReserveB: 9},
		Liquidation{Protocol: a(1), Liquidator: a(2), Borrower: a(3), DebtToken: a(4), CollateralToken: a(5), DebtRepaid: 1, CollateralOut: 2},
		Liquidation{Protocol: a(1), Liquidator: a(2), Borrower: a(3), Compound: true},
		FlashLoan{Protocol: a(1), Initiator: a(2), Token: a(3), Amount: 10, Fee: 1},
		OracleUpdate{Oracle: a(1), Token: a(2), Price: 11},
	}
	var arena Arena
	var cut []types.Log
	for _, ev := range evs {
		cut = append(cut, ev.LogIn(&arena))
	}
	for i, ev := range evs {
		want := ev.LogIn(nil)
		if !reflect.DeepEqual(cut[i], want) {
			t.Errorf("event %d: arena log %+v, want %+v", i, cut[i], want)
		}
		if cap(cut[i].Topics) != len(cut[i].Topics) || cap(cut[i].Data) != len(cut[i].Data) {
			t.Errorf("event %d: arena slices not capped at their length", i)
		}
	}
	_ = append(cut[0].Topics, types.Hash{0xff})
	_ = append(cut[0].Data, 0xff)
	if want := evs[1].LogIn(nil); !reflect.DeepEqual(cut[1], want) {
		t.Error("append to one arena log changed the next")
	}
}
