package main

import (
	"bytes"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// tracer records the benchmark's own spans around each call it makes
// into a layer's public functions. A span begun while another is open on
// the same goroutine is its child, which is how a query hook called from
// inside ServeHTTP lands under its own request's span. A nil *tracer
// records nothing and costs nothing, so untraced runs pass nil.
type tracer struct {
	mu    sync.Mutex
	spans []span
	open  map[int64]int // goroutine id → innermost open span
}

// span is one timed layer call. parent indexes tracer.spans; -1 marks a
// root span, one the benchmark itself called.
type span struct {
	layer      string
	parent     int
	lane       int64
	start, end time.Time
}

func newTracer() *tracer { return &tracer{open: map[int64]int{}} }

// begin opens a span for layer and returns its id for end.
func (t *tracer) begin(layer string) int { return t.openSpan(layer, false) }

// beginNested opens a span for layer only when the calling goroutine
// already has one open, so a call made outside any traced op records
// nothing; it returns -1 then, which end ignores.
func (t *tracer) beginNested(layer string) int { return t.openSpan(layer, true) }

func (t *tracer) openSpan(layer string, nestedOnly bool) int {
	if t == nil {
		return -1
	}
	g := goid()
	t.mu.Lock()
	defer t.mu.Unlock()
	parent, ok := t.open[g]
	if !ok {
		if nestedOnly {
			return -1
		}
		parent = -1
	}
	t.spans = append(t.spans, span{layer: layer, parent: parent, lane: g, start: time.Now()})
	id := len(t.spans) - 1
	t.open[g] = id
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[id]
	sp.end = now
	if sp.parent >= 0 {
		t.open[sp.lane] = sp.parent
	} else {
		delete(t.open, sp.lane)
	}
}

// selfTimes returns, per span, its duration minus the time its direct
// children cover.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, sp := range t.spans {
		self[i] += sp.end.Sub(sp.start)
		if sp.parent >= 0 {
			self[sp.parent] -= sp.end.Sub(sp.start)
		}
	}
	return self
}

// layerSelf returns the self time of every span of one layer, in the
// order the spans began.
func (t *tracer) layerSelf(layer string) []time.Duration {
	if t == nil {
		return nil
	}
	self := t.selfTimes()
	var out []time.Duration
	for i, sp := range t.spans {
		if sp.layer == layer {
			out = append(out, self[i])
		}
	}
	return out
}

// layerTotal returns the full duration, children included, of every span
// of one layer.
func (t *tracer) layerTotal(layer string) []time.Duration {
	if t == nil {
		return nil
	}
	var out []time.Duration
	for _, sp := range t.spans {
		if sp.layer == layer {
			out = append(out, sp.end.Sub(sp.start))
		}
	}
	return out
}

// rootTotal is the summed duration of the root spans: the part of the
// workload's op time some layer call covers.
func (t *tracer) rootTotal() time.Duration {
	var total time.Duration
	for _, sp := range t.spans {
		if sp.parent < 0 {
			total += sp.end.Sub(sp.start)
		}
	}
	return total
}

// goid parses the calling goroutine's id from its stack header
// ("goroutine 17 [running]:"). Only traced runs call it, once per span
// begun. It costs about 5 µs plus 1 µs per stack frame on a 2-vCPU VM,
// so the workloads keep spans at month, op or request granularity, never
// per block.
func goid() int64 {
	var buf [64]byte
	f := bytes.Fields(buf[:runtime.Stack(buf[:], false)])
	id, _ := strconv.ParseInt(string(f[1]), 10, 64)
	return id
}

// quantile returns the q-quantile of ds by linear interpolation between
// order statistics; 0 for an empty sample.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + time.Duration((pos-float64(lo))*float64(s[lo+1]-s[lo]))
}

func sum(ds []time.Duration) time.Duration {
	var total time.Duration
	for _, d := range ds {
		total += d
	}
	return total
}

func mean(ds []time.Duration) float64 { return sum(ds).Seconds() / float64(len(ds)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// process snapshots the counters the benchmark reports about its own
// process over the timed phase.
type process struct {
	cpu time.Duration
	gc  uint64
}

func readProcess() process {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // zero CPU time on failure
	gc := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(gc)
	return process{cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), gc: gc[0].Value.Uint64()}
}

func (p process) since(start process) process {
	return process{cpu: p.cpu - start.cpu, gc: p.gc - start.gc}
}

// heapAllocs is the running count of heap objects allocated.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// rssSampler polls the process's resident set size while the timed
// phase runs and keeps the peak.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	peak int64
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{}), peak: rss()}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				if r := rss(); r > s.peak {
					s.peak = r
				}
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the peak RSS in MiB.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	<-s.done
	if r := rss(); r > s.peak {
		s.peak = r
	}
	return float64(s.peak) / (1 << 20)
}

// rss reads the resident set size from /proc/self/statm; off Linux it
// falls back to the Go runtime's mapped-minus-released memory.
func rss() int64 {
	if raw, err := os.ReadFile("/proc/self/statm"); err == nil {
		if f := bytes.Fields(raw); len(f) > 1 {
			if pages, err := strconv.ParseInt(string(f[1]), 10, 64); err == nil {
				return pages * int64(os.Getpagesize())
			}
		}
	}
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64() - s[1].Value.Uint64())
}
