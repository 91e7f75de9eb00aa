package sim

import (
	"runtime"
	"testing"
)

// simAllocsPerBlock bounds the allocations of BenchmarkSimulation's world
// (bpm 60, 3 months) per simulated block, setup included. Balances in
// ledger slots, fixed-width AMM quotes, read-only path quoting and
// executor-owned log slabs took it from ~285 to ~90.
const simAllocsPerBlock = 150

func TestSimulationAllocsPerBlock(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.BlocksPerMonth = 60
	cfg.Months = 3
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	per := float64(after.Mallocs-before.Mallocs) / float64(s.Chain.Len())
	t.Logf("%d blocks: %.1f allocations per block", s.Chain.Len(), per)
	if per > simAllocsPerBlock {
		t.Errorf("the sim allocates %.1f times per block, want ≤ %d", per, simAllocsPerBlock)
	}
}
