package p2p

import (
	"testing"
	"time"

	"mevscope/internal/types"
)

func mkTx(i uint64) *types.Transaction {
	return &types.Transaction{Nonce: i, From: types.DeriveAddress("p2p", 1), GasPrice: types.Gwei}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Nodes: 1, Degree: 2}); err == nil {
		t.Error("1 node should be rejected")
	}
	if _, err := New(Config{Nodes: 10, Degree: 0}); err == nil {
		t.Error("degree 0 should be rejected")
	}
	if _, err := New(DefaultConfig(1)); err != nil {
		t.Errorf("default config: %v", err)
	}
	if _, err := New(Config{Nodes: 10, Degree: 2, Topology: "torus"}); err == nil {
		t.Error("unknown topology should be rejected")
	}
	if _, err := New(Config{Nodes: 10, Degree: 2, Vantages: []VantageConfig{{Node: 10}}}); err == nil {
		t.Error("out-of-range vantage node should be rejected")
	}
	if _, err := New(Config{Nodes: 10, Degree: 2, Vantages: []VantageConfig{{Node: 0, MissRate: 1.0}}}); err == nil {
		t.Error("miss rate 1.0 should be rejected")
	}
}

func TestGraphConnectivity(t *testing.T) {
	for _, top := range []Topology{TopologyRingChords, TopologyRing, TopologySmallWorld} {
		n, err := New(Config{Nodes: 100, Degree: 6, Seed: 42, Topology: top})
		if err != nil {
			t.Fatal(err)
		}
		// BFS distances must all be reachable under every topology.
		for i := 0; i < n.Nodes(); i++ {
			if n.vantages[0].dist[i] < 0 {
				t.Fatalf("%s: node %d unreachable", top, i)
			}
		}
		if n.Diameter() <= 0 || n.Diameter() > 60 {
			t.Errorf("%s: diameter = %d", top, n.Diameter())
		}
	}
	// The default chord graph honors the degree target.
	n, _ := New(Config{Nodes: 100, Degree: 6, Seed: 42})
	for i := 0; i < n.Nodes(); i++ {
		if n.PeerCount(i) < 6 {
			t.Errorf("node %d degree %d < 6", i, n.PeerCount(i))
		}
	}
	if n.PeerCount(-1) != 0 || n.PeerCount(10_000) != 0 {
		t.Error("out-of-range PeerCount should be 0")
	}
	// The plain ring has a much larger diameter than the chord graph —
	// the topology knob is real.
	ring, _ := New(Config{Nodes: 100, Degree: 2, Seed: 42, Topology: TopologyRing})
	if ring.Diameter() <= n.Diameter() {
		t.Errorf("ring diameter %d should exceed chords diameter %d", ring.Diameter(), n.Diameter())
	}
}

func TestBroadcastReturns(t *testing.T) {
	n, _ := New(Config{Nodes: 20, Degree: 4, Seed: 1})
	tx := mkTx(1)
	// Admitted but unobserved: the observation window has not opened.
	admitted, observed := n.Broadcast(tx, 100, time.Unix(0, 0))
	if !admitted || observed {
		t.Errorf("pre-window broadcast = (%v, %v), want (true, false)", admitted, observed)
	}
	if !n.Pool().Contains(tx.Hash()) {
		t.Error("broadcast should admit to mempool")
	}
	// Duplicate: rejected by the pool, distinct from mere non-observation.
	admitted, observed = n.Broadcast(tx, 101, time.Unix(1, 0))
	if admitted || observed {
		t.Errorf("duplicate broadcast = (%v, %v), want (false, false)", admitted, observed)
	}
	if n.Pool().Len() != 1 {
		t.Error("pool should hold one tx")
	}
	// Admitted and observed once the window opens (miss rate zero).
	n2, _ := New(Config{Nodes: 20, Degree: 4, Seed: 1, ObserverMissRate: 0})
	n2.StartObservation(100)
	admitted, observed = n2.Broadcast(mkTx(2), 120, time.Unix(0, 0))
	if !admitted || !observed {
		t.Errorf("in-window broadcast = (%v, %v), want (true, true)", admitted, observed)
	}
}

func TestObserverWindow(t *testing.T) {
	n, _ := New(Config{Nodes: 20, Degree: 4, Seed: 1, ObserverMissRate: 0})
	obs := n.Observer()
	if obs.Active() {
		t.Error("observer should start inactive")
	}

	before := mkTx(1)
	n.Broadcast(before, 50, time.Unix(0, 0))
	if obs.Seen(before.Hash()) {
		t.Error("tx before window should be unseen")
	}

	n.StartObservation(100)
	during := mkTx(2)
	if _, ok := n.Broadcast(during, 120, time.Unix(10, 0)); !ok {
		t.Error("tx during window should be captured")
	}
	if !obs.Seen(during.Hash()) {
		t.Error("Seen during window")
	}
	rec, ok := obs.Record(during.Hash())
	if !ok || rec.FirstSeenBlock != 120 {
		t.Errorf("record = %+v", rec)
	}
	if rec.FirstSeen.Before(time.Unix(10, 0)) {
		t.Error("first seen should include hop latency")
	}

	n.StopObservation(200)
	after := mkTx(3)
	n.Broadcast(after, 220, time.Unix(20, 0))
	if obs.Seen(after.Hash()) {
		t.Error("tx after window should be unseen")
	}

	start, stop := obs.Window()
	if start != 100 || stop != 200 {
		t.Errorf("window = %d..%d", start, stop)
	}
	if obs.Count() != 1 {
		t.Errorf("count = %d", obs.Count())
	}
	if len(obs.Records()) != 1 {
		t.Error("records len")
	}
}

// TestRecordsBetween: the binary-searched block range returns exactly
// what a linear filter of the whole log returns, in capture order —
// including ranges that straddle, precede or follow every record.
func TestRecordsBetween(t *testing.T) {
	n, _ := New(Config{Nodes: 20, Degree: 4, Seed: 3, ObserverMissRate: 0.3})
	n.StartObservation(10)
	for i := uint64(0); i < 200; i++ {
		n.Broadcast(mkTx(i), 10+i/7, time.Unix(int64(i), 0))
	}
	obs := n.Observer()
	all := obs.Records()
	for _, r := range [][2]uint64{{0, 9}, {0, 15}, {12, 12}, {13, 20}, {30, 1 << 40}, {40, 50}, {20, 13}} {
		var want []ObservedTx
		for _, rec := range all {
			if rec.FirstSeenBlock >= r[0] && rec.FirstSeenBlock <= r[1] {
				want = append(want, rec)
			}
		}
		got := obs.RecordsBetween(r[0], r[1])
		if len(got) != len(want) {
			t.Fatalf("blocks %d..%d: %d records, want %d", r[0], r[1], len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("blocks %d..%d: record %d = %+v, want %+v", r[0], r[1], i, got[i], want[i])
			}
		}
	}
}

func TestObserverMissRate(t *testing.T) {
	n, _ := New(Config{Nodes: 50, Degree: 4, Seed: 7, ObserverMissRate: 0.2})
	n.StartObservation(0)
	const total = 2000
	for i := 0; i < total; i++ {
		n.Broadcast(mkTx(uint64(i)), uint64(i), time.Unix(int64(i), 0))
	}
	missed := total - n.Observer().Count()
	// Expect ~20% misses; allow generous slack.
	if missed < total*10/100 || missed > total*30/100 {
		t.Errorf("missed %d of %d, want ≈ 20%%", missed, total)
	}
	// Everything still reached the mempool.
	if n.Pool().Len() != total {
		t.Error("all txs should be pending regardless of observer")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int {
		n, _ := New(Config{Nodes: 60, Degree: 5, Seed: 99, ObserverMissRate: 0.1})
		n.StartObservation(0)
		var hops []int
		for i := 0; i < 100; i++ {
			tx := mkTx(uint64(i))
			n.Broadcast(tx, uint64(i), time.Unix(int64(i), 0))
			if r, ok := n.Observer().Record(tx.Hash()); ok {
				hops = append(hops, r.Hops)
			} else {
				hops = append(hops, -1)
			}
		}
		return hops
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// broadcastHops drives count broadcasts through a network and returns,
// per tx, the recorded hop distance at the primary vantage (-1 when
// unobserved).
func broadcastHops(cfg Config, count int) []int {
	n, _ := New(cfg)
	n.StartObservation(0)
	out := make([]int, count)
	for i := 0; i < count; i++ {
		tx := mkTx(uint64(i))
		n.Broadcast(tx, uint64(i), time.Unix(int64(i), 0))
		if r, ok := n.Observer().Record(tx.Hash()); ok {
			out[i] = r.Hops
		} else {
			out[i] = -1
		}
	}
	return out
}

// TestOriginIndependentOfMissRate pins the origin/miss-rate untangling:
// the gossip origin of a transaction comes from its own rng stream, so
// changing ObserverMissRate changes which txs are observed but never
// where the commonly-observed ones originated (their hop distances
// agree). Under the old entangled stream the first miss desynchronized
// every later origin draw.
func TestOriginIndependentOfMissRate(t *testing.T) {
	cfg := Config{Nodes: 60, Degree: 5, Seed: 99}
	cfg.ObserverMissRate = 0
	a := broadcastHops(cfg, 500)
	cfg.ObserverMissRate = 0.3
	b := broadcastHops(cfg, 500)
	missed, compared := 0, 0
	for i := range a {
		if b[i] == -1 {
			missed++
			continue
		}
		compared++
		if a[i] != b[i] {
			t.Fatalf("tx %d hops %d with miss rate 0.3, %d with 0 — origins entangled with the miss stream", i, b[i], a[i])
		}
	}
	if missed == 0 || compared == 0 {
		t.Fatalf("degenerate test: %d missed, %d compared", missed, compared)
	}
}

// TestVantageCountDoesNotPerturbPrimary: adding vantages must not change
// what the primary vantage observes — each vantage draws misses from its
// own stream.
func TestVantageCountDoesNotPerturbPrimary(t *testing.T) {
	record := func(extra int) []ObservedTx {
		cfg := Config{Nodes: 60, Degree: 5, Seed: 7, ObserverMissRate: 0.1}
		if extra > 0 {
			cfg.Vantages = SpreadVantages(cfg.Nodes, extra+1, cfg.ObserverMissRate)
		}
		n, _ := New(cfg)
		n.StartObservation(0)
		for i := 0; i < 400; i++ {
			n.Broadcast(mkTx(uint64(i)), uint64(i), time.Unix(int64(i), 0))
		}
		return n.Observer().Records()
	}
	solo, multi := record(0), record(3)
	if len(solo) != len(multi) {
		t.Fatalf("primary vantage records: %d solo vs %d with 3 extra vantages", len(solo), len(multi))
	}
	for i := range solo {
		if solo[i] != multi[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, solo[i], multi[i])
		}
	}
}

// TestPerVantageMissIndependence: changing one vantage's miss rate must
// not change what any other vantage records.
func TestPerVantageMissIndependence(t *testing.T) {
	record := func(rate1 float64) [][]ObservedTx {
		cfg := Config{Nodes: 60, Degree: 5, Seed: 7}
		cfg.Vantages = []VantageConfig{
			{Node: 0, MissRate: 0.05},
			{Node: 20, MissRate: rate1},
			{Node: 40, MissRate: 0.05},
		}
		n, _ := New(cfg)
		n.StartObservation(0)
		for i := 0; i < 300; i++ {
			n.Broadcast(mkTx(uint64(i)), uint64(i), time.Unix(int64(i), 0))
		}
		out := make([][]ObservedTx, 3)
		for vi, v := range n.Vantages() {
			out[vi] = v.Records()
		}
		return out
	}
	a, b := record(0.0), record(0.5)
	for _, vi := range []int{0, 2} {
		if len(a[vi]) != len(b[vi]) {
			t.Fatalf("vantage %d records changed with vantage 1's miss rate: %d vs %d", vi, len(a[vi]), len(b[vi]))
		}
		for i := range a[vi] {
			if a[vi][i] != b[vi][i] {
				t.Fatalf("vantage %d record %d changed with vantage 1's miss rate", vi, i)
			}
		}
	}
	if len(b[1]) >= len(a[1]) {
		t.Errorf("vantage 1 at 50%% miss should record fewer than at 0%%: %d vs %d", len(b[1]), len(a[1]))
	}
}

// TestOutageWindowSemantics: an outage suppresses recording inside its
// block range only, and the records outside it are identical with and
// without the outage (the miss stream keeps its position through the
// gap).
func TestOutageWindowSemantics(t *testing.T) {
	record := func(outages []OutageWindow) []ObservedTx {
		cfg := Config{Nodes: 40, Degree: 4, Seed: 11}
		cfg.Vantages = []VantageConfig{{Node: 0, MissRate: 0.1, Outages: outages}}
		n, _ := New(cfg)
		n.StartObservation(0)
		for i := 0; i < 300; i++ {
			n.Broadcast(mkTx(uint64(i)), uint64(i), time.Unix(int64(i), 0))
		}
		return n.Observer().Records()
	}
	clean := record(nil)
	dark := record([]OutageWindow{{Start: 100, Stop: 149}})
	for _, r := range dark {
		if r.FirstSeenBlock >= 100 && r.FirstSeenBlock <= 149 {
			t.Fatalf("record %v falls inside the outage window", r)
		}
	}
	// Outside the outage the two runs agree record for record.
	i := 0
	for _, r := range clean {
		if r.FirstSeenBlock >= 100 && r.FirstSeenBlock <= 149 {
			continue
		}
		if i >= len(dark) || dark[i] != r {
			t.Fatalf("outage perturbed records outside its window at %d", i)
		}
		i++
	}
	if i != len(dark) {
		t.Fatalf("dark run has %d extra records", len(dark)-i)
	}
	if len(dark) >= len(clean) {
		t.Errorf("outage should lose records: %d vs %d", len(dark), len(clean))
	}
}

// TestLegacyOutageToggle: Stop/Start still works as a crude outage and
// the §6.1 consequence holds — the gap is blind.
func TestLegacyOutageToggle(t *testing.T) {
	n, _ := New(Config{Nodes: 30, Degree: 4, Seed: 5, ObserverMissRate: 0})
	n.StartObservation(100)
	during := mkTx(1)
	n.Broadcast(during, 110, time.Unix(0, 0))

	n.StopObservation(150) // outage begins
	gap := mkTx(2)
	n.Broadcast(gap, 160, time.Unix(1, 0))

	n.StartObservation(200) // node recovers
	after := mkTx(3)
	n.Broadcast(after, 210, time.Unix(2, 0))

	obs := n.Observer()
	if !obs.Seen(during.Hash()) || obs.Seen(gap.Hash()) || !obs.Seen(after.Hash()) {
		t.Error("outage gap should be blind, bracketing windows visible")
	}
	if obs.Count() != 2 {
		t.Errorf("count = %d", obs.Count())
	}
}

// mkObserver builds a restored vantage over the given hashes for view
// algebra tests.
func mkObserver(node int, start, stop uint64, hashes ...types.Hash) *Observer {
	recs := make([]ObservedTx, len(hashes))
	for i, h := range hashes {
		recs[i] = ObservedTx{Hash: h, FirstSeenBlock: start + uint64(i)}
	}
	return RestoreVantage(node, recs, start, stop)
}

func TestUnionQuorumAlgebra(t *testing.T) {
	h := func(i byte) types.Hash { return types.Hash{i} }
	a := mkObserver(0, 100, 200, h(1), h(2))
	b := mkObserver(10, 120, 220, h(2), h(3))
	c := mkObserver(20, 90, 0, h(2), h(4)) // still recording

	union := Union(a, b, c)
	for _, want := range []types.Hash{h(1), h(2), h(3), h(4)} {
		if !union.Seen(want) {
			t.Errorf("union should see %v", want)
		}
	}
	if union.Seen(h(9)) {
		t.Error("union sees a hash nobody recorded")
	}
	if union.Count() != 4 {
		t.Errorf("union count = %d, want 4", union.Count())
	}
	if start, stop := union.Window(); start != 90 || stop != 0 {
		t.Errorf("union window = %d..%d, want 90..0 (still open)", start, stop)
	}

	q2 := Quorum(2, a, b, c)
	if !q2.Seen(h(2)) || q2.Seen(h(1)) || q2.Seen(h(3)) {
		t.Error("quorum-2 should see exactly the hash two vantages share")
	}
	if q2.Count() != 1 {
		t.Errorf("quorum-2 count = %d, want 1", q2.Count())
	}
	// Quorum-1 is the union; an unreachable quorum sees nothing.
	if Quorum(1, a, b, c).Count() != union.Count() {
		t.Error("quorum-1 != union")
	}
	if q4 := Quorum(4, a, b, c); q4.Count() != 0 || q4.Seen(h(2)) {
		t.Error("quorum above the vantage count should see nothing")
	}

	// Materialize preserves quorum membership and picks the earliest
	// observation of each hash.
	m := union.Materialize()
	if m.Count() != 4 {
		t.Errorf("materialized count = %d", m.Count())
	}
	rec, ok := m.Record(h(2))
	if !ok || rec.FirstSeenBlock != 90 {
		t.Errorf("materialized h2 = %+v, want earliest first-seen 90", rec)
	}
	recs := m.Records()
	for i := 1; i < len(recs); i++ {
		if recs[i-1].FirstSeenBlock > recs[i].FirstSeenBlock {
			t.Error("materialized records not in first-seen order")
		}
	}

	// Window of fully-closed views takes the latest stop.
	if _, stop := Union(a, b).Window(); stop != 220 {
		t.Errorf("closed union stop = %d, want 220", stop)
	}
}
