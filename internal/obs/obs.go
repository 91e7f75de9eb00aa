// Package obs is the pipeline flight recorder: a zero-dependency,
// concurrency-safe hierarchical span tracer for the mevscope pipeline.
//
// A Trace is a tree of Spans. Each span names one stage of work (a
// constant from this package, or a free-form name), carries typed
// attributes (blocks, txs, bytes, worker count, a short label), and —
// for spans that wrap a worker pool — accumulates per-worker busy time
// so the trace can report pool utilization as busy/(wall×workers).
//
// The disabled path is strictly zero-overhead: every method on *Trace
// and *Span is nil-safe, so code threads a possibly-nil span through
// the pipeline unconditionally and pays nothing (no allocations, no
// atomics, one nil check) when tracing is off. Instrumented call sites
// therefore never branch on "is tracing enabled" themselves.
//
// Two export views are provided: WriteChrome emits Chrome trace-event
// JSON loadable in Perfetto (chrome://tracing), with concurrent sibling
// spans laid out on separate lanes; WriteSummary and Summary aggregate
// spans by stage name into a wall/%/utilization table.
//
// Concurrency: spans may be created and ended from any goroutine
// (Child registration is mutex-protected, busy time is atomic). The
// attribute setters on a span must be called by the goroutine that owns
// it, and the export views must run after the traced work has joined.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Canonical stage names. Using shared constants keeps the /metrics
// stage label set bounded and lets tooling (traceck, the -progress
// ticker) recognise pipeline stages by name.
const (
	StageSim       = "sim"             // whole simulation run
	StageSimMonth  = "sim:month"       // one study month of sealing
	StageRun       = "run"             // one seed of an ensemble
	StageRestore   = "archive:restore" // a shared, month or range archive read
	StageDecode    = "archive:decode"  // one segment decoded from disk
	StageColumn    = "archive:column"  // one column chunk decoded
	StageDetect    = "detect"          // MEV detection scan
	StageProfit    = "profit"          // profit resolution
	StageInfer     = "infer"           // private-tx classification fan-out
	StageAggregate = "aggregate"       // per-month accumulation pass
	StageBuild     = "build"           // artifact builder fan-out
	StageArtifact  = "artifact"        // one report artifact
	StageRotate    = "stream:rotate"   // follower month rotation
	StageSnapshot  = "stream:snapshot" // follower report snapshot
	StageRender    = "render"          // report rendering / encoding
	StagePartial   = "analyze:partial" // one month partial (memoized or computed)
	StageMerge     = "analyze:merge"   // month partials merged into a report
)

// MetricStages is the bounded set of stage names the query server
// exports as mevscope_stage_seconds{stage=...} histograms. "total"
// (the root span of a cold build) is added by the server itself.
func MetricStages() []string {
	return []string{
		StageRestore, StageDecode, StageDetect, StageProfit,
		StageInfer, StageAggregate, StageBuild, StagePartial, StageMerge,
	}
}

// Trace is one recording session: a root span plus every descendant
// created through Child. The zero value is not usable; call New.
// A nil *Trace is the disabled recorder — all methods no-op.
type Trace struct {
	name  string
	start time.Time

	// OnSpanStart and OnSpanEnd, when set, are invoked synchronously
	// from the goroutine creating or ending a span. Set them before
	// any concurrent spans exist; the callbacks must be safe to call
	// from multiple goroutines.
	OnSpanStart func(*Span)
	OnSpanEnd   func(*Span)

	mu    sync.Mutex
	spans []*Span
	root  *Span
}

// New starts a trace whose root span is already running.
func New(name string) *Trace {
	t := &Trace{name: name, start: time.Now()}
	t.root = &Span{trace: t, id: 1, name: name}
	t.spans = []*Span{t.root}
	return t
}

// Root returns the root span, or nil on a nil trace.
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Spans returns a snapshot of every span recorded so far, in creation
// order (root first).
func (t *Trace) Spans() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Span is one timed stage. A nil *Span is the disabled path: every
// method no-ops and Child returns nil, so instrumentation threads
// spans without nil checks at call sites.
type Span struct {
	trace  *Trace
	parent *Span
	id     int
	name   string
	label  string

	start time.Duration // offset from trace start
	dur   time.Duration // valid once done
	done  bool

	blocks  int64
	txs     int64
	bytes   int64
	workers int64
	busy    atomic.Int64 // nanoseconds of worker busy time
}

// Child starts a sub-span. Safe to call from any goroutine.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	t := s.trace
	c := &Span{trace: t, parent: s, name: name, start: time.Since(t.start)}
	t.mu.Lock()
	c.id = len(t.spans) + 1
	t.spans = append(t.spans, c)
	t.mu.Unlock()
	if t.OnSpanStart != nil {
		t.OnSpanStart(c)
	}
	return c
}

// End stops the span's clock. Ending twice is a no-op. Must be called
// by the goroutine that owns the span, before its parent ends.
func (s *Span) End() {
	if s == nil || s.done {
		return
	}
	s.dur = time.Since(s.trace.start) - s.start
	s.done = true
	if s.trace.OnSpanEnd != nil {
		s.trace.OnSpanEnd(s)
	}
}

// SetBlocks records how many blocks the stage processed.
func (s *Span) SetBlocks(n int) {
	if s != nil {
		s.blocks = int64(n)
	}
}

// SetTxs records how many transactions (or detections) the stage processed.
func (s *Span) SetTxs(n int) {
	if s != nil {
		s.txs = int64(n)
	}
}

// SetBytes records how many on-disk bytes the stage read or wrote.
func (s *Span) SetBytes(n int64) {
	if s != nil {
		s.bytes = n
	}
}

// SetWorkers records the size of the worker pool the stage fanned out to.
func (s *Span) SetWorkers(n int) {
	if s != nil {
		s.workers = int64(n)
	}
}

// SetLabel attaches a short free-form detail (a month, an artifact name).
func (s *Span) SetLabel(label string) {
	if s != nil {
		s.label = label
	}
}

// AddBusy accumulates worker busy time. Safe from any goroutine.
func (s *Span) AddBusy(d time.Duration) {
	if s != nil {
		s.busy.Add(int64(d))
	}
}

// Name returns the stage name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Label returns the free-form detail ("" on nil).
func (s *Span) Label() string {
	if s == nil {
		return ""
	}
	return s.label
}

// Parent returns the parent span (nil for the root or a nil span).
func (s *Span) Parent() *Span {
	if s == nil {
		return nil
	}
	return s.parent
}

// Blocks returns the recorded block count.
func (s *Span) Blocks() int64 {
	if s == nil {
		return 0
	}
	return s.blocks
}

// Txs returns the recorded transaction count.
func (s *Span) Txs() int64 {
	if s == nil {
		return 0
	}
	return s.txs
}

// Bytes returns the recorded byte count.
func (s *Span) Bytes() int64 {
	if s == nil {
		return 0
	}
	return s.bytes
}

// Workers returns the recorded pool size (0 if the stage is not a pool).
func (s *Span) Workers() int {
	if s == nil {
		return 0
	}
	return int(s.workers)
}

// Busy returns the accumulated worker busy time.
func (s *Span) Busy() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.busy.Load())
}

// Start returns the span's start offset from the trace start.
func (s *Span) Start() time.Duration {
	if s == nil {
		return 0
	}
	return s.start
}

// Duration returns the span's wall time. For a span that has not ended
// it returns the elapsed time so far.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	if !s.done {
		return time.Since(s.trace.start) - s.start
	}
	return s.dur
}

// Utilization reports busy/(wall×workers) for pool spans, clamped to
// [0, 1]; it returns 0 for spans that did not fan out to a pool.
func (s *Span) Utilization() float64 {
	if s == nil || s.workers <= 0 {
		return 0
	}
	wall := s.Duration()
	if wall <= 0 {
		return 0
	}
	u := float64(s.busy.Load()) / (float64(wall) * float64(s.workers))
	if u > 1 {
		u = 1 // clock granularity can nudge busy past wall×workers
	}
	return u
}

// depth returns the number of ancestors (0 for the root).
func (s *Span) depth() int {
	d := 0
	for p := s.parent; p != nil; p = p.parent {
		d++
	}
	return d
}

// isAncestor reports whether a is an ancestor of s.
func (s *Span) isAncestor(a *Span) bool {
	for p := s.parent; p != nil; p = p.parent {
		if p == a {
			return true
		}
	}
	return false
}
