package mevscope

import (
	"sync"
	"testing"

	"mevscope/internal/sim"
	"mevscope/internal/stream"
	"mevscope/internal/types"
)

// The streaming-vs-batch benchmark pair: both measure the full
// pipeline (detect + profit + inference + report) over the same
// pre-simulated world, excluding simulation cost. Each reports a
// "blocks/op" metric so per-block costs (ns/block, allocs/block) are
// derivable from the standard ns/op and allocs/op.

var (
	benchStreamOnce sync.Once
	benchStreamSim  *sim.Sim
)

func benchWorld(b *testing.B) *sim.Sim {
	benchStreamOnce.Do(func() {
		cfg := sim.DefaultConfig(1234)
		cfg.BlocksPerMonth = 100
		s, err := sim.New(cfg)
		if err != nil {
			panic(err)
		}
		if err := s.Run(); err != nil {
			panic(err)
		}
		benchStreamSim = s
	})
	return benchStreamSim
}

// BenchmarkPipelineBatch is the collect-then-measure baseline: one batch
// analysis over the finished chain per iteration.
func BenchmarkPipelineBatch(b *testing.B) {
	s := benchWorld(b)
	blocks := float64(s.Chain.Len())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AnalyzeWith(s, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(blocks, "blocks/op")
}

// BenchmarkPipelineStream feeds the same world one block at a time
// through the follower and snapshots the final report — the incremental
// path's end-to-end cost.
func BenchmarkPipelineStream(b *testing.B) {
	s := benchWorld(b)
	blocks := float64(s.Chain.Len())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := stream.ForSim(s, 1)
		if _, err := f.Sync(); err != nil {
			b.Fatal(err)
		}
		if f.Report() == nil {
			b.Fatal("nil report")
		}
	}
	b.ReportMetric(blocks, "blocks/op")
}

// BenchmarkPipelineStreamSnapshots additionally snapshots the live report
// at every month boundary — the cost of continuous visibility.
func BenchmarkPipelineStreamSnapshots(b *testing.B) {
	s := benchWorld(b)
	blocks := float64(s.Chain.Len())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := stream.ForSim(s, 1)
		f.OnMonthEnd = func(_ types.Month, fl *stream.Follower) {
			if fl.Report() == nil {
				b.Fatal("nil snapshot")
			}
		}
		if _, err := f.Sync(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(blocks, "blocks/op")
}
