package main

import (
	"testing"
	"time"
)

// TestPerturbedReferenceFails is the oracle's self-test: with a
// corrupted reference, every workload must count failed outputs, so a
// wrong answer can never pass as correct.
func TestPerturbedReferenceFails(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates four worlds")
	}
	for name, run := range workloads {
		t.Run(name, func(t *testing.T) {
			b := &bench{
				seed: baselineSeed, run: time.Nanosecond, perturb: true,
				dir: t.TempDir(), values: map[string]float64{},
			}
			if err := run(b); err != nil {
				t.Fatal(err)
			}
			if b.attempted == 0 || b.failed == 0 {
				t.Errorf("perturbed reference: %d of %d outputs failed, want > 0", b.failed, b.attempted)
			}
		})
	}
}
