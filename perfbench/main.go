// Command perfbench is mevscope's repository benchmark. One invocation
// runs one workload through the entry points users call — the sim and
// archive packages, mevscope.AnalyzeDataset*, query.Server.ServeHTTP and
// stream.Follower — checks every output against a library reference,
// and prints the metrics BENCHMARK.json declares, the last stdout line
// being one JSON object:
//
//	bash perfbench/run.sh --workload reproduce --seed 1 --seconds 15 --trace 0
//
// --trace 0 measures with no spans anywhere and prints the end-to-end
// metrics. --trace 1 wraps every layer call the benchmark makes in its
// own spans (the program's internal/obs spans stay as they are) and
// prints the per-layer metrics. README.md describes the workloads.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// The seeds every result records: the benchmark was tuned on the
// baseline seed, and its oracle must also pass on the held-out one.
const (
	baselineSeed = 1
	heldOutSeed  = 7
)

// setupReps is how many times a run builds its set-up state; setup_s is
// the median.
const setupReps = 3

var workloads = map[string]func(*bench) error{
	"reproduce":   runReproduce,
	"serve-cold":  runServeCold,
	"serve-mixed": runServeMixed,
	"live-follow": runLiveFollow,
}

// bench is one run of one workload.
type bench struct {
	seed    int64
	run     time.Duration // how long the timed phase measures
	traced  bool
	perturb bool // the oracle self-test corrupts the reference: failed must exceed 0
	dir     string

	attempted, failed int
	values            map[string]float64 // every metric measured, by name
}

// check counts one checked output.
func (b *bench) check(ok bool) {
	b.attempted++
	if !ok {
		b.failed++
	}
}

func (b *bench) set(name string, v float64) { b.values[name] = v }

// path names a scratch location inside the run's work directory.
func (b *bench) path(name string) string { return filepath.Join(b.dir, name) }

// setup builds the workload's starting state setupReps times, each into
// a fresh directory, and records the median time as setup_s. The timed
// phase uses the last repetition's state; earlier directories are
// removed.
func (b *bench) setup(build func(dir string) error) (string, error) {
	var ds []time.Duration
	var dir string
	for i := 0; i < setupReps; i++ {
		if dir != "" {
			if err := os.RemoveAll(dir); err != nil {
				return "", err
			}
		}
		dir = b.path(fmt.Sprintf("setup%d", i))
		start := time.Now()
		if err := build(dir); err != nil {
			return "", fmt.Errorf("set-up: %w", err)
		}
		ds = append(ds, time.Since(start))
	}
	b.set("setup_s", quantile(ds, 0.5).Seconds())
	return dir, nil
}

// timed runs the timed phase, recording peak RSS and the process's CPU
// time and GC cycles over it. It first collects the set-up's garbage and
// returns it to the OS, so peak RSS starts from the live set-up state
// rather than from wherever the last set-up's collection cycle left off.
func (b *bench) timed(fn func() error) error {
	debug.FreeOSMemory()
	rs := startRSS()
	p0 := readProcess()
	err := fn()
	p := readProcess().since(p0)
	b.set("peak_rss_mb", rs.finish())
	b.set("process.cpu_s", p.cpu.Seconds())
	b.set("process.gc_cycles", float64(p.gc))
	return err
}

// closedLoop runs op back to back, one at a time, until the ops' own
// times add up to the run length. In a traced run every other op gets
// the tracer, so the untraced ops beside them give the tracing overhead
// and the e2e numbers stay span-free.
func (b *bench) closedLoop(tr *tracer, op func(tr *tracer) (time.Duration, error)) (plain, traced []time.Duration, err error) {
	var total time.Duration
	for i := 0; total < b.run || len(plain) == 0 || (tr != nil && len(traced) == 0); i++ {
		var opTr *tracer
		if tr != nil && i%2 == 1 {
			opTr = tr
		}
		d, err := op(opTr)
		if err != nil {
			return nil, nil, err
		}
		total += d
		if opTr != nil {
			traced = append(traced, d)
		} else {
			plain = append(plain, d)
		}
	}
	return plain, traced, nil
}

// traceSummary records how much of the traced op time the layer spans
// cover and how much slower traced ops ran than untraced ones.
func (b *bench) traceSummary(tr *tracer, plain, traced []time.Duration) {
	if tr == nil || len(traced) == 0 {
		return
	}
	b.set("trace.coverage_ratio", tr.rootTotal().Seconds()/sum(traced).Seconds())
	b.set("trace.overhead_ratio", mean(traced)/mean(plain)-1)
}

// spec is the part of BENCHMARK.json the program reads: which metrics to
// print, in which units.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload to run: reproduce, serve-cold, serve-mixed, live-follow")
	seed := flag.Int64("seed", baselineSeed, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 15, "length of the timed phase")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the benchmark's spans")
	flag.Parse()
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	runWorkload, ok := workloads[*workload]
	if !ok || *trace < 0 || *trace > 1 || *seconds <= 0 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload reproduce|serve-cold|serve-mixed|live-follow --seed N --seconds S --trace 0|1")
		return 2
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fail(err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fail(fmt.Errorf("BENCHMARK.json: %w", err))
	}
	dir, err := filepath.Abs(filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", *workload, os.Getpid())))
	if err != nil {
		return fail(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)

	envLine, _ := json.Marshal(environment(*workload, *seed, *trace))
	fmt.Printf("env %s\n", envLine)
	b := &bench{
		seed: *seed, run: time.Duration(*seconds * float64(time.Second)), traced: *trace == 1,
		dir: dir, values: map[string]float64{},
	}
	if err := runWorkload(b); err != nil {
		return fail(fmt.Errorf("%s: %w", *workload, err))
	}

	// A layer the workload bypasses reads 0; an end-to-end metric must
	// have been measured.
	want := sp.EndToEnd
	if b.traced {
		want = sp.PerLayer
	}
	out := map[string]metric{}
	for _, m := range want {
		v, ok := b.values[m.Name]
		if !ok && !b.traced {
			return fail(fmt.Errorf("%s measured no %s", *workload, m.Name))
		}
		out[m.Name] = metric{Value: v, Unit: m.Unit}
		fmt.Printf("metric %-28s %16.6f %s\n", m.Name, v, m.Unit)
	}
	fmt.Printf("checked %d outputs, %d failed\n", b.attempted, b.failed)
	res, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{b.failed == 0 && b.attempted > 0, b.attempted, b.failed, out})
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(res))
	return 0
}

// environment is the record every result carries: where and on what
// code the numbers were measured.
func environment(workload string, seed int64, trace int) map[string]any {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"workload":      workload,
		"seed":          seed,
		"trace":         trace,
		"baseline_seed": baselineSeed,
		"held_out_seed": heldOutSeed,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"cpu":           cpuModel(),
		"go":            runtime.Version(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"commit":        commit,
		"source_sha256": sourceDigest(),
	}
}

// cpuModel names the processor from /proc/cpuinfo, or the architecture
// where that file does not exist.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes every Go source and module file of the checkout,
// in path order: it identifies the code measured where no commit is
// available.
func sourceDigest() string {
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only weakens the digest
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", f)
		_, _ = io.Copy(h, fh) // a short read only weakens the digest
		fh.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
