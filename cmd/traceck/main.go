// Command traceck validates a Chrome trace-event JSON file produced by
// `mevscope -trace` / `mevscope analyze -trace` — the CI gate behind
// the trace artifact. It checks that the file is well-formed (parses,
// every complete event carries a name, a span id and sane timestamps),
// that spans nest (every child's interval sits inside its parent's,
// within a small scheduling tolerance), that the expected pipeline
// stages all appear, and that the root's direct children cover at
// least -coverage of the recorded wall time — i.e. the recorder
// actually saw the run, not just slivers of it.
//
// Usage:
//
//	traceck [-coverage 0.95] [-stages detect,profit,...] trace.json
//
// Exit status 0 when every check passes; 1 with a diagnostic naming
// the first failed check otherwise.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// defaultStages is the stage set an analyze run must record: the
// archive restore with its per-segment decodes, the measurement core,
// the month partials and their merge — an analyze that restored the
// whole range at once records neither — and the final render.
const defaultStages = "archive:restore,archive:decode,detect,profit,aggregate,build,analyze:partial,analyze:merge,render"

// nestTolerance is the slack (in trace microseconds) allowed between a
// child's interval and its parent's: span ends are observed on
// different goroutines, so a child can outlive its parent's recorded
// end by a scheduling quantum without the tree being wrong.
const nestTolerance = 1000.0 // 1ms

// event is the subset of a trace event the checks need.
type event struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args"`
}

// span is one decoded complete ("X") event.
type span struct {
	name       string
	id, parent int
	start, end float64
}

func main() {
	var (
		coverage = flag.Float64("coverage", 0.95, "minimum fraction of root wall time the top-level stages must cover")
		stages   = flag.String("stages", defaultStages, "comma-separated stage names that must appear")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: traceck [-coverage F] [-stages a,b,...] trace.json")
		os.Exit(2)
	}
	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "traceck:", err)
		os.Exit(1)
	}
	var required []string
	for _, st := range strings.Split(*stages, ",") {
		if st = strings.TrimSpace(st); st != "" {
			required = append(required, st)
		}
	}
	summary, err := check(data, *coverage, required)
	if err != nil {
		fmt.Fprintln(os.Stderr, "traceck:", err)
		os.Exit(1)
	}
	fmt.Println("traceck: OK —", summary)
}

// check runs every validation over one trace file and returns a
// one-line summary of what it saw.
func check(data []byte, minCoverage float64, required []string) (string, error) {
	var file struct {
		TraceEvents []event `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		return "", fmt.Errorf("not valid trace JSON: %w", err)
	}

	spans := make(map[int]*span)
	order := []*span{}
	for i, e := range file.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		if e.Name == "" {
			return "", fmt.Errorf("event %d: complete event with no name", i)
		}
		if e.Ts < 0 || e.Dur < 0 {
			return "", fmt.Errorf("event %d (%s): negative ts/dur (%g, %g)", i, e.Name, e.Ts, e.Dur)
		}
		id := argInt(e.Args, "span")
		if id < 1 {
			return "", fmt.Errorf("event %d (%s): missing span id", i, e.Name)
		}
		if _, dup := spans[id]; dup {
			return "", fmt.Errorf("event %d (%s): duplicate span id %d", i, e.Name, id)
		}
		sp := &span{name: e.Name, id: id, parent: argInt(e.Args, "parent"), start: e.Ts, end: e.Ts + e.Dur}
		spans[id] = sp
		order = append(order, sp)
	}
	if len(order) == 0 {
		return "", fmt.Errorf("no complete (ph=X) events in trace")
	}

	var root *span
	for _, sp := range order {
		if sp.parent == 0 {
			if root != nil {
				return "", fmt.Errorf("two roots: %q (span %d) and %q (span %d)", root.name, root.id, sp.name, sp.id)
			}
			root = sp
			continue
		}
		par, ok := spans[sp.parent]
		if !ok {
			return "", fmt.Errorf("span %d (%s): parent %d does not exist", sp.id, sp.name, sp.parent)
		}
		if sp.start < par.start-nestTolerance || sp.end > par.end+nestTolerance {
			return "", fmt.Errorf("span %d (%s) [%.0f, %.0f] escapes parent %d (%s) [%.0f, %.0f]",
				sp.id, sp.name, sp.start, sp.end, par.id, par.name, par.start, par.end)
		}
	}
	if root == nil {
		return "", fmt.Errorf("no root span (every span has a parent)")
	}

	seen := make(map[string]bool, len(order))
	for _, sp := range order {
		seen[sp.name] = true
	}
	var missing []string
	for _, st := range required {
		if !seen[st] {
			missing = append(missing, st)
		}
	}
	if len(missing) > 0 {
		return "", fmt.Errorf("required stages missing: %s", strings.Join(missing, ", "))
	}

	cov := coverage(root, order)
	if cov < minCoverage {
		return "", fmt.Errorf("top-level stages cover %.1f%% of root wall time, want ≥ %.1f%%",
			100*cov, 100*minCoverage)
	}
	return fmt.Sprintf("%d spans, %d distinct stages, coverage %.1f%%", len(order), len(seen), 100*cov), nil
}

// coverage is the fraction of the root's wall time covered by the
// union of its direct children's intervals — overlapping children (the
// inference stages run concurrently with the build fan-out) count
// once.
func coverage(root *span, all []*span) float64 {
	if root.end <= root.start {
		return 1
	}
	type iv struct{ lo, hi float64 }
	var ivs []iv
	for _, sp := range all {
		if sp.parent == root.id {
			ivs = append(ivs, iv{sp.start, sp.end})
		}
	}
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].lo != ivs[j].lo {
			return ivs[i].lo < ivs[j].lo
		}
		return ivs[i].hi < ivs[j].hi
	})
	var covered, hi float64
	for _, v := range ivs {
		if v.lo > hi {
			covered += v.hi - v.lo
			hi = v.hi
		} else if v.hi > hi {
			covered += v.hi - hi
			hi = v.hi
		}
	}
	return covered / (root.end - root.start)
}

// argInt reads an integer-valued arg (JSON numbers decode as float64).
func argInt(args map[string]any, key string) int {
	v, ok := args[key]
	if !ok {
		return 0
	}
	f, ok := v.(float64)
	if !ok {
		return 0
	}
	return int(f)
}
