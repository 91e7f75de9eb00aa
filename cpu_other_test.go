//go:build !unix

package mevscope

import "time"

// processCPU reports no CPU time where getrusage is missing; benchmarks
// then leave out their per-CPU-second metrics.
func processCPU() time.Duration { return 0 }
