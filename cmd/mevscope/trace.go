package main

// Flight-recorder wiring for the study and analyze subcommands: -trace
// records the run under an internal/obs trace and writes it as Chrome
// trace-event JSON (load it at ui.perfetto.dev or chrome://tracing)
// plus a per-stage summary on stderr; -progress prints a stage ticker
// to stderr as the pipeline moves, driven by the same span hooks.

import (
	"fmt"
	"os"
	"sync"
	"time"

	"mevscope/internal/obs"
)

// progressStages is the coarse stage set the -progress ticker reports;
// fine-grained children (per-segment decodes, per-artifact builders, the
// restore and analysis stages inside one month partial) stay in the
// trace file but would drown a terminal.
var progressStages = map[string]bool{
	obs.StageSim:       true,
	obs.StageSimMonth:  true,
	obs.StageRun:       true,
	obs.StageRestore:   true,
	obs.StageDetect:    true,
	obs.StageProfit:    true,
	obs.StageInfer:     true,
	obs.StageAggregate: true,
	obs.StageBuild:     true,
	obs.StageRender:    true,
	obs.StagePartial:   true,
	obs.StageMerge:     true,
}

// tracer owns one command's recording session: the trace, where the
// Chrome JSON lands, and whether the progress ticker is on. A nil
// tracer (neither flag set) is inert and hands out a nil root span, so
// the traced and untraced code paths are the same call sites.
type tracer struct {
	tr   *obs.Trace
	file string
}

// newTracer starts a recording session when -trace or -progress asks
// for one; otherwise it returns nil and the run pays nothing.
func newTracer(name, traceFile string, progress bool) *tracer {
	if traceFile == "" && !progress {
		return nil
	}
	tr := obs.New(name)
	if progress {
		attachProgress(tr)
	}
	return &tracer{tr: tr, file: traceFile}
}

// root is the span command code threads through the pipeline.
func (t *tracer) root() *obs.Span {
	if t == nil {
		return nil
	}
	return t.tr.Root()
}

// finish ends the root span, writes the trace file when -trace named
// one, and prints the per-stage summary to stderr. Called once, after
// the run's last traced work.
func (t *tracer) finish() {
	if t == nil {
		return
	}
	t.tr.Root().End()
	if t.file == "" {
		return
	}
	f, err := os.Create(t.file)
	if err != nil {
		fail(1, fmt.Errorf("trace: %w", err))
	}
	if err := t.tr.WriteChrome(f); err != nil {
		f.Close()
		fail(1, fmt.Errorf("trace: %w", err))
	}
	if err := f.Close(); err != nil {
		fail(1, fmt.Errorf("trace: %w", err))
	}
	t.tr.WriteSummary(os.Stderr)
	fmt.Fprintf(os.Stderr, "mevscope: trace written to %s (load at ui.perfetto.dev)\n", t.file)
}

// attachProgress hooks the trace so every coarse stage prints one line
// when it completes. Hooks fire from worker goroutines (the ensemble
// fan-out ends "run" spans concurrently), so writes serialize under a
// mutex.
func attachProgress(tr *obs.Trace) {
	var mu sync.Mutex
	tr.OnSpanEnd = func(sp *obs.Span) {
		// A month partial's one line stands for the stages it nests.
		if !progressStages[sp.Name()] || sp.Parent().Name() == obs.StagePartial {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		name := sp.Name()
		if l := sp.Label(); l != "" {
			name += " " + l
		}
		line := fmt.Sprintf("mevscope: %-32s %8v", name, sp.Duration().Round(time.Millisecond))
		if u := sp.Utilization(); u > 0 {
			line += fmt.Sprintf("  pool %d×%.0f%%", sp.Workers(), 100*u)
		}
		if b := sp.Blocks(); b > 0 {
			line += fmt.Sprintf("  %d blocks", b)
		}
		fmt.Fprintln(os.Stderr, line)
	}
}
