package p2p

import (
	"fmt"
	"testing"
	"time"

	"mevscope/internal/types"
)

// benchTxs pre-builds (and pre-hashes) transactions so the broadcast
// benchmarks measure the network, not transaction construction.
func benchTxs(n int) []*types.Transaction {
	txs := make([]*types.Transaction, n)
	for i := range txs {
		txs[i] = &types.Transaction{Nonce: uint64(i), From: types.DeriveAddress("bench", 1), GasPrice: types.Gwei}
		txs[i].Hash()
	}
	return txs
}

// BenchmarkBroadcast measures the per-transaction gossip + observation
// cost as the vantage count grows — the new hot path of the observation
// network, in ns/tx and allocs/tx.
func BenchmarkBroadcast(b *testing.B) {
	for _, vantages := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("vantages=%d", vantages), func(b *testing.B) {
			cfg := DefaultConfig(1)
			cfg.Vantages = SpreadVantages(cfg.Nodes, vantages, cfg.ObserverMissRate)
			n, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			n.StartObservation(0)
			txs := benchTxs(b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.Broadcast(txs[i], uint64(i), time.Unix(int64(i), 0))
			}
		})
	}
}

// BenchmarkUnionViewMaterialize measures flattening a 4-vantage union
// into one merged record log over a 10k-tx capture.
func BenchmarkUnionViewMaterialize(b *testing.B) {
	cfg := DefaultConfig(1)
	cfg.Vantages = SpreadVantages(cfg.Nodes, 4, 0.05)
	n, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	n.StartObservation(0)
	for i, tx := range benchTxs(10_000) {
		n.Broadcast(tx, uint64(i), time.Unix(int64(i), 0))
	}
	union := Union(n.Vantages()...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m := union.Materialize(); m.Count() == 0 {
			b.Fatal("empty union")
		}
	}
}
