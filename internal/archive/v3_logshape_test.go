package archive

import (
	"strings"
	"testing"

	"mevscope/internal/events"
	"mevscope/internal/sim"
	"mevscope/internal/types"
)

func addrN(b byte) types.Address {
	var a types.Address
	for i := range a {
		a[i] = b
	}
	return a
}

// TestLogShapeRoundTrip: every structured event shape — and the raw
// fallback — must survive writeLog/readLog byte for byte. The writer
// only emits a structured shape after proving the round trip at encode
// time, so a decode mismatch here means the two codec halves disagree.
func TestLogShapeRoundTrip(t *testing.T) {
	logs := []types.Log{
		events.Transfer{Token: addrN(1), From: addrN(2), To: addrN(3), Amount: 41_000_007}.Log(),
		events.Swap{Pool: addrN(4), Sender: addrN(5), Recipient: addrN(6),
			TokenIn: addrN(1), TokenOut: addrN(7), AmountIn: 123, AmountOut: 456_789}.Log(),
		events.Sync{Pool: addrN(4), ReserveA: 1, ReserveB: 2}.Log(),
		events.Liquidation{Protocol: addrN(8), Liquidator: addrN(9), Borrower: addrN(10),
			DebtToken: addrN(1), CollateralToken: addrN(7), DebtRepaid: 77, CollateralOut: 88}.Log(),
		events.Liquidation{Protocol: addrN(8), Liquidator: addrN(9), Borrower: addrN(10),
			DebtToken: addrN(1), CollateralToken: addrN(7), DebtRepaid: 5, CollateralOut: 6,
			Compound: true}.Log(),
		events.FlashLoan{Protocol: addrN(8), Initiator: addrN(9), Token: addrN(1),
			Amount: 1 << 40, Fee: 9}.Log(),
		events.OracleUpdate{Oracle: addrN(11), Token: addrN(1), Price: 314159}.Log(),
		// Free-form log no event shape round-trips: the raw fallback.
		{Address: addrN(12), Topics: []types.Hash{types.EventSignature("Custom")}, Data: []byte("opaque")},
		// Topic-less, data-less log.
		{Address: addrN(13)},
	}
	w := newColWriter()
	for _, lg := range logs {
		w.writeLog(lg)
	}
	r := &colReader{addrs: w.addrList, hashes: w.hashList, body: w.body, rows: len(logs)}
	for i, want := range logs {
		got := r.readLog()
		if r.err != nil {
			t.Fatalf("log %d: decode failed: %v", i, r.err)
		}
		if !logEqual(got, want) {
			t.Errorf("log %d did not round-trip:\n got %+v\nwant %+v", i, got, want)
		}
	}
	if r.off != len(r.body) {
		t.Errorf("decoder consumed %d of %d body bytes", r.off, len(r.body))
	}
}

// TestLogShapeUnknownTagRefused: a tag byte no shipped writer emits is
// corruption (or a future format read by an old binary) and must fail
// the decode, not fall through to a guessed shape.
func TestLogShapeUnknownTagRefused(t *testing.T) {
	r := &colReader{body: []byte{0x7F}, rows: 1}
	r.readLog()
	if r.err == nil || !strings.Contains(r.err.Error(), "unknown log shape") {
		t.Fatalf("unknown-tag decode error = %v; want unknown log shape refusal", r.err)
	}
}

// TestWriteLogAllocs pins writeLog's shape check near zero allocations
// per log over one window month. The check re-encodes each decoded event
// to compare it with the log; encoding with Log() cost about two
// allocations per structured log (topics and data), the writer's scratch
// arena one slab per few hundred logs. The month is written once to warm
// the dictionaries and the body, so the measured pass allocates only for
// the check.
func TestWriteLogAllocs(t *testing.T) {
	cfg := sim.DefaultConfig(1)
	cfg.BlocksPerMonth = 100
	cfg.StartMonth, cfg.Months = types.ObservationStartMonth, 1
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	var logs []types.Log
	for _, b := range s.Chain.Blocks() {
		for _, r := range b.Receipts {
			logs = append(logs, r.Logs...)
		}
	}
	if len(logs) < 1000 {
		t.Fatalf("the month holds %d logs, too few to measure", len(logs))
	}
	w := newColWriter()
	writeAll := func() {
		w.body = w.body[:0]
		for _, lg := range logs {
			w.writeLog(lg)
		}
	}
	writeAll()
	raw := 0
	r := &colReader{addrs: w.addrList, hashes: w.hashList, body: w.body}
	for range logs {
		if r.body[r.off] == logShapeRaw {
			raw++
		}
		r.readLog()
	}
	perLog := testing.AllocsPerRun(5, writeAll) / float64(len(logs))
	t.Logf("%d logs (%d raw): %.4f allocations per log", len(logs), raw, perLog)
	if raw*10 > len(logs) {
		t.Fatalf("%d of %d logs fell back to the raw shape; the check is meant for structured logs", raw, len(logs))
	}
	if perLog > 0.05 {
		t.Errorf("writeLog allocates %.3f times per log, want ≤ 0.05 (is the shape check back on Log()?)", perLog)
	}
}
