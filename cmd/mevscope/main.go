// Command mevscope runs the full reproduction study: simulate the
// 23-month window, run the measurement pipeline and print every table and
// figure of the paper — or an ensemble of runs with confidence intervals.
//
// Usage:
//
//	mevscope [-seed N] [-bpm BLOCKS] [-months M] [-section NAME]
//	         [-scenario NAME] [-seeds N,N,...] [-parallel W]
//	         [-vantages N] [-topology NAME] [-view union|quorum:K|vantage:N]
//	mevscope archive -out DIR [-live] [-seed N]
//	         [-bpm BLOCKS] [-months M] [-scenario NAME]
//	         [-vantages N] [-topology NAME]
//	mevscope analyze -from DIR [-range 2021-03..2021-06] [-section NAME]
//	         [-view union|quorum:K|vantage:N] [-parallel W] [-csv DIR]
//	         [-trace FILE] [-progress]
//	mevscope serve -from DIR [-addr HOST:PORT] [-cache N] [-parallel W]
//	         [-metrics=false] [-pprof]
//	         [-live [-seed N] [-scenario NAME] [-bpm BLOCKS]]
//
// The archive subcommand simulates a world once and persists the
// collected dataset as a segmented on-disk archive (one directory per
// study month of per-column chunks with zone maps — blocks, observed
// pending transactions, Flashbots API records — plus the price series
// and a checksummed manifest); -live streams each month to disk as it
// completes instead of serializing everything at the end. The analyze
// subcommand reruns the measurement pipeline over such an archive
// without re-simulating, month by month as serve builds a report: each
// archived month is analyzed into a month partial and the partials
// merge into the report (query.Assemble), byte-identical to the
// original run's. -range analyzes only a month slice, reading just
// those segments. An archive whose manifest version this build does not
// read (one written by an earlier release) is refused with a pointer to
// regenerate it with the archive subcommand.
// The serve subcommand exposes an archive over HTTP (internal/query):
// per-artifact queries in JSON/CSV/text with month-range slicing and
// observation-view selection (?view=union|quorum:K|vantage:N on
// multi-vantage archives), backed by an LRU of analyzed reports so
// repeated queries skip the pipeline; with -live it also simulates a
// world in the background and serves the streaming follower's snapshot
// from the same endpoints (?source=live). Request metrics — per-endpoint
// counts, status classes, bytes, p50/p99 latency, per-stage cold-build
// histograms and Go runtime gauges — are exposed at /metrics
// (Prometheus text or ?format=json) unless -metrics=false; -pprof
// additionally mounts net/http/pprof under /debug/pprof/.
//
// The study and analyze paths carry a flight recorder: -trace FILE
// records every pipeline stage (with worker-pool utilization) as a
// hierarchical span tree and writes it as Chrome trace-event JSON —
// loadable at ui.perfetto.dev — plus a per-stage wall-time summary on
// stderr; -progress prints a live stage ticker instead (or as well).
// Tracing never changes the report: output is byte-identical with it
// on or off.
//
// -vantages/-topology reshape the observation network (see internal/p2p):
// N vantages spread around a ring, ring-chords or small-world gossip
// graph, each with its own first-seen log; -view picks which combination
// of them the §6 private-transaction inference classifies against.
//
// Sections: all (default) or any artifact name of the report model
// (measure.ArtifactNames: table1, fig3 … fig9, mevsplit, bundles,
// negatives, damage, concentration, private_links, vantage_sensitivity);
// private is an alias of private_links. One section prints exactly what
// GET /v1/artifact/NAME?format=text serves, and an unknown name is
// rejected before any work runs.
//
// Scenarios: baseline, no-flashbots, hashpower-skew, high-private,
// post-london, single-vantage, multi-vantage-union, degraded-observer.
// With -seeds, one study runs per seed under the scenario and the merged
// report carries mean ± stddev per table cell; a repeated seed, a
// -section other than all and a -csv directory are usage errors. An
// unknown scenario name is rejected up front with the valid names
// listed.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"mevscope"
	"mevscope/internal/archive"
	"mevscope/internal/core/measure"
	"mevscope/internal/dataset"
	"mevscope/internal/obs"
	"mevscope/internal/p2p"
	"mevscope/internal/query"
	"mevscope/internal/scenario"
	"mevscope/internal/sim"
	"mevscope/internal/stream"
	"mevscope/internal/types"
)

func main() {
	if len(os.Args) > 1 && !strings.HasPrefix(os.Args[1], "-") {
		switch os.Args[1] {
		case "archive":
			runArchive(os.Args[2:])
		case "analyze":
			runAnalyze(os.Args[2:])
		case "serve":
			runServe(os.Args[2:])
		default:
			// A mistyped subcommand must not silently fall through to the
			// default study (flag parsing would also drop every argument
			// after the first positional one).
			fail(2, fmt.Errorf("unknown subcommand %q (valid: archive, analyze, serve, or flags for a study run)", os.Args[1]))
		}
		return
	}
	runStudy(os.Args[1:])
}

// noPositional rejects leftover positional arguments after flag parsing:
// flag.Parse stops at the first non-flag token, so anything left over
// means part of the command line was silently ignored.
func noPositional(fs *flag.FlagSet) {
	if fs.NArg() > 0 {
		fail(2, fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}
}

// fail prints an error and exits with the given code.
func fail(code int, err error) {
	fmt.Fprintln(os.Stderr, "mevscope:", err)
	os.Exit(code)
}

// checkScenario validates a -scenario value before any work runs: an
// unknown name (e.g. a typo) must not fall back to a default world.
func checkScenario(name string) error {
	_, err := scenario.MustLookup(name)
	return err
}

// checkSection resolves a -section value before any work runs: "all" or
// an artifact name of the report model, case-insensitively, with
// "private" kept as an alias of "private_links". A typo is a usage
// error listing the valid names, not a failure after the whole run.
func checkSection(section string) (string, error) {
	name := strings.ToLower(section)
	if name == "private" {
		name = "private_links"
	}
	names := measure.ArtifactNames()
	for _, n := range append([]string{"all"}, names...) {
		if n == name {
			return name, nil
		}
	}
	return "", fmt.Errorf("unknown section %q (valid: all, %s; private is an alias of private_links)",
		section, strings.Join(names, ", "))
}

// checkObservation validates the observation-network flags up front so a
// typo'd topology or view is a usage error, not a failed run.
func checkObservation(vantages int, topology, view string) error {
	if vantages < 0 {
		return fmt.Errorf("-vantages must be ≥ 0 (got %d)", vantages)
	}
	if _, err := p2p.ParseTopology(topology); err != nil {
		return err
	}
	return dataset.CheckView(view)
}

// runStudy is the classic single-run / ensemble path.
func runStudy(args []string) {
	fs := flag.NewFlagSet("mevscope", flag.ExitOnError)
	var (
		seed        = fs.Int64("seed", 42, "simulation seed (runs are deterministic per seed)")
		seeds       = fs.String("seeds", "", "comma-separated seed list; enables the multi-seed ensemble")
		scen        = fs.String("scenario", "baseline", "named scenario: "+strings.Join(scenario.Names(), ", "))
		parallelism = fs.Int("parallel", 0, "worker-pool size for analysis and ensemble fan-out (0 = all cores)")
		bpm         = fs.Uint64("bpm", 600, "blocks per simulated month (mainnet ≈ 190k)")
		months      = fs.Int("months", 0, "limit the window to the first N months (0 = all remaining)")
		miners      = fs.Int("miners", 0, "miner-set size (0 = default 55)")
		vantages    = fs.Int("vantages", 0, "observation vantages spread around the gossip network (0 = scenario default)")
		topology    = fs.String("topology", "", "gossip topology: ring-chords (default), ring, small-world")
		view        = fs.String("view", "", "observation view for §6 classification: vantage:N, union, quorum:K (default: scenario's)")
		section     = fs.String("section", "all", "which artifact to print")
		csvDir      = fs.String("csv", "", "also write every artifact as CSV into this directory")
		traceFile   = fs.String("trace", "", "record the run and write Chrome trace-event JSON to this file (view at ui.perfetto.dev)")
		progress    = fs.Bool("progress", false, "print a per-stage progress ticker to stderr")
		quiet       = fs.Bool("q", false, "suppress progress output")
	)
	fs.Parse(args)
	noPositional(fs)
	if err := checkScenario(*scen); err != nil {
		fail(2, err)
	}
	if err := checkObservation(*vantages, *topology, *view); err != nil {
		fail(2, err)
	}
	sec, err := checkSection(*section)
	if err != nil {
		fail(2, err)
	}
	var seedList []int64
	if *seeds != "" {
		if seedList, err = parseSeeds(*seeds); err != nil {
			fail(2, err)
		}
		if err := checkEnsemble(sec, *csvDir); err != nil {
			fail(2, err)
		}
	}
	rec := newTracer("study", *traceFile, *progress)

	opts := mevscope.Options{
		Seed: *seed, BlocksPerMonth: *bpm, Months: *months, NumMiners: *miners,
		Scenario: *scen, Parallelism: *parallelism,
		Vantages: *vantages, Topology: *topology, View: *view,
		Span: rec.root(),
	}
	// Resolve the full config once up front: cross-flag mistakes (a view
	// the resolved vantage count cannot satisfy) are usage errors too.
	if _, err := opts.Config(); err != nil {
		fail(2, err)
	}

	if seedList != nil {
		runEnsemble(opts, seedList, *parallelism, *quiet)
		rec.finish()
		return
	}

	if !*quiet {
		fmt.Fprintf(os.Stderr, "mevscope: simulating %d months at %d blocks/month (seed %d, scenario %s)...\n",
			pick(*months, types.StudyMonths), *bpm, *seed, *scen)
	}
	t0 := time.Now()
	study, err := mevscope.Run(opts)
	if err != nil {
		fail(1, err)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "mevscope: %d blocks, %d MEV extractions measured in %v\n",
			study.Sim.Chain.Len(), len(study.Profits), time.Since(t0).Round(time.Millisecond))
	}
	rsp := rec.root().Child(obs.StageRender)
	writeCSV(study.Report, *csvDir, *quiet)
	printSection(study.Report, sec)
	rsp.End()
	rec.finish()
}

// runArchive simulates a world and persists the collected dataset as a
// segmented archive — all at once after the run, or month by month while
// the world grows with -live.
func runArchive(args []string) {
	fs := flag.NewFlagSet("mevscope archive", flag.ExitOnError)
	var (
		out      = fs.String("out", "", "archive directory to create (required)")
		live     = fs.Bool("live", false, "stream: rotate each month to disk as it completes instead of serializing at the end")
		seed     = fs.Int64("seed", 42, "simulation seed")
		scen     = fs.String("scenario", "baseline", "named scenario: "+strings.Join(scenario.Names(), ", "))
		bpm      = fs.Uint64("bpm", 600, "blocks per simulated month")
		months   = fs.Int("months", 0, "limit the window to the first N months (0 = all remaining)")
		miners   = fs.Int("miners", 0, "miner-set size (0 = default 55)")
		vantages = fs.Int("vantages", 0, "observation vantages spread around the gossip network (0 = scenario default)")
		topology = fs.String("topology", "", "gossip topology: ring-chords (default), ring, small-world")
		quiet    = fs.Bool("q", false, "suppress progress output")
	)
	fs.Parse(args)
	noPositional(fs)
	if err := checkScenario(*scen); err != nil {
		fail(2, err)
	}
	if err := checkObservation(*vantages, *topology, ""); err != nil {
		fail(2, err)
	}
	if *out == "" {
		fail(2, fmt.Errorf("archive: -out DIR is required"))
	}
	opts := mevscope.Options{
		Seed: *seed, BlocksPerMonth: *bpm, Months: *months, NumMiners: *miners, Scenario: *scen,
		Vantages: *vantages, Topology: *topology,
	}
	cfg, err := opts.Config()
	if err != nil {
		fail(2, err)
	}
	meta := map[string]string{
		"seed":     strconv.FormatInt(*seed, 10),
		"scenario": *scen,
		"bpm":      strconv.FormatUint(*bpm, 10),
		"months":   strconv.Itoa(pick(*months, types.StudyMonths)),
	}
	if *vantages > 0 {
		meta["vantages"] = strconv.Itoa(*vantages)
	}
	if *topology != "" {
		meta["topology"] = *topology
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "mevscope: simulating %d months at %d blocks/month (seed %d, scenario %s)...\n",
			pick(*months, types.StudyMonths), *bpm, *seed, *scen)
	}
	t0 := time.Now()
	s, err := sim.New(cfg)
	if err != nil {
		fail(1, err)
	}
	var man *archive.Manifest
	if *live {
		man, err = archiveLive(s, *out, meta, *quiet)
	} else {
		if err = s.Run(); err == nil {
			man, err = archive.Write(*out, dataset.FromSim(s), meta)
		}
	}
	if err != nil {
		fail(1, err)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "mevscope: archived %d blocks into %d segments under %s in %v\n",
			man.TotalBlocks, len(man.Segments), *out, time.Since(t0).Round(time.Millisecond))
	}
}

// archiveLive grows the world through a streaming follower and rotates
// every finished month to disk the moment it completes; the final
// archive is file-identical to the batch path's.
func archiveLive(s *sim.Sim, out string, meta map[string]string, quiet bool) (*archive.Manifest, error) {
	sw, err := archive.NewStreamWriter(out, s.Chain.Timeline, s.World.WETH, archive.DefaultFormat, meta)
	if err != nil {
		return nil, err
	}
	f := stream.ForSim(s, 0)
	var rotErr error
	f.OnMonthEnd = func(m types.Month, f *stream.Follower) {
		if rotErr != nil {
			return
		}
		if rotErr = sw.WriteSegment(f.MonthSegment(m)); rotErr == nil && !quiet {
			fmt.Fprintf(os.Stderr, "mevscope: month %s rotated to disk (%d segments)\n", m.Label(), sw.Segments())
		}
	}
	end := s.EndBlock()
	for s.Chain.NextNumber() <= end {
		if err := s.Step(); err != nil {
			return nil, err
		}
		if _, err := f.Sync(); err != nil {
			return nil, err
		}
		if rotErr != nil {
			return nil, rotErr
		}
	}
	return sw.Finalize(f.Dataset())
}

// runAnalyze re-analyzes an archived dataset — optionally just a month
// slice of it — month by month: each archived month of the range is
// analyzed into a month partial and the partials merge into the report,
// the assembly `mevscope serve` runs on a cache miss (query.Assemble).
func runAnalyze(args []string) {
	fs := flag.NewFlagSet("mevscope analyze", flag.ExitOnError)
	var (
		from        = fs.String("from", "", "archive directory to analyze (required)")
		months      = fs.String("range", "", "month range to analyze, e.g. 2021-03..2021-06 (default: the whole archive)")
		view        = fs.String("view", "", "observation view for §6 classification: vantage:N, union, quorum:K")
		section     = fs.String("section", "all", "which artifact to print")
		parallelism = fs.Int("parallel", 0, "analysis worker-pool size (0 = all cores; a report's months merge on one worker)")
		csvDir      = fs.String("csv", "", "also write every artifact as CSV into this directory")
		traceFile   = fs.String("trace", "", "record the run and write Chrome trace-event JSON to this file (view at ui.perfetto.dev)")
		progress    = fs.Bool("progress", false, "print one progress line per analyzed month and per merge stage to stderr")
		quiet       = fs.Bool("q", false, "suppress progress output")
	)
	fs.Parse(args)
	noPositional(fs)
	if *from == "" {
		fail(2, fmt.Errorf("analyze: -from DIR is required"))
	}
	if err := dataset.CheckView(*view); err != nil {
		fail(2, err)
	}
	sec, err := checkSection(*section)
	if err != nil {
		fail(2, err)
	}
	man, err := archive.ReadManifest(*from)
	if err != nil {
		fail(1, err)
	}
	lo, hi, err := resolveRange(man, *months)
	if err != nil {
		fail(2, err)
	}
	// A view the archive's vantage list (one vantage when it lists none)
	// cannot satisfy is a usage error naming the valid range, like a bad
	// -range.
	if err := dataset.CheckViewFor(*view, max(len(man.Vantages), 1)); err != nil {
		fail(2, err)
	}
	if !*quiet {
		blocks, months := 0, 0
		for _, seg := range man.Segments {
			if seg.Month >= lo && seg.Month <= hi {
				blocks, months = blocks+seg.Blocks.Count, months+1
			}
		}
		fmt.Fprintf(os.Stderr, "mevscope: analyzing %d blocks in %d of %d segments (head %d) of %s month by month\n",
			blocks, months, len(man.Segments), man.Head, *from)
	}
	rec := newTracer("analyze", *traceFile, *progress)
	t0 := time.Now()
	rep, err := query.Assemble(*from, man, lo, hi, *view, mevscope.AnalyzeDatasetPartial, *parallelism, rec.root())
	if err != nil {
		fail(1, err)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "mevscope: %d MEV extractions measured in %v\n",
			rep.Table1.Total.Extractions, time.Since(t0).Round(time.Millisecond))
	}
	rsp := rec.root().Child(obs.StageRender)
	writeCSV(rep, *csvDir, *quiet)
	printSection(rep, sec)
	rsp.End()
	rec.finish()
}

// resolveRange parses analyze's -range and validates it against the
// archive's segment window before any data file is read, so a bad range
// is a usage error (exit 2) that names the window actually on disk. An
// empty spec selects the whole archive.
func resolveRange(man *archive.Manifest, spec string) (types.Month, types.Month, error) {
	lo, hi, err := types.ParseMonthRange(spec)
	if err != nil {
		return 0, 0, fmt.Errorf("analyze: %w", err)
	}
	if spec == "" {
		return lo, hi, nil
	}
	first, last := man.Window()
	if hi < first || lo > last {
		return 0, 0, fmt.Errorf("analyze: -range %s selects no archived months (the archive covers %s..%s)",
			spec, first.Label(), last.Label())
	}
	return lo, hi, nil
}

// checkServe validates the serve flag combination up front: the server
// needs at least one source, and a negative cache size or partial
// budget, or one whose byte count overflows int64, is a
// misconfiguration, not a degraded mode. 0 is valid for both and selects
// query.Config's documented default (16 entries, 256 MiB).
func checkServe(from string, live bool, cacheSize int, partialMiB int64) error {
	if from == "" && !live {
		return fmt.Errorf("serve: need -from DIR, -live, or both")
	}
	if cacheSize < 0 {
		return fmt.Errorf("serve: -cache must be ≥ 0 (got %d; 0 selects the default 16)", cacheSize)
	}
	if partialMiB < 0 || partialMiB > math.MaxInt64>>20 {
		return fmt.Errorf("serve: -partial-cache-mib must be in 0..%d (got %d; 0 selects the default 256)", int64(math.MaxInt64>>20), partialMiB)
	}
	return nil
}

// checkServeArchive reads the manifest of the archive to serve, if any,
// so an unreadable one — missing, malformed, or of a manifest version
// this build refuses — stops serve at startup with the archive
// package's error instead of failing every later request.
func checkServeArchive(dir string) error {
	if dir == "" {
		return nil
	}
	_, err := archive.ReadManifest(dir)
	return err
}

// checkServeLiveFlags rejects simulation flags that were explicitly set
// without -live: they would be silently ignored, and a user asking for
// `-scenario no-flashbots` must not be served baseline archive data.
func checkServeLiveFlags(live bool, set []string) error {
	if live || len(set) == 0 {
		return nil
	}
	return fmt.Errorf("serve: %s only apply to the -live simulation", strings.Join(set, ", "))
}

// liveOnlyFlagNames are the serve flags that configure the -live world.
var liveOnlyFlagNames = map[string]bool{"seed": true, "scenario": true, "bpm": true, "months": true}

// runServe serves artifact queries over an archived dataset — and, with
// -live, over a world simulated in the background whose streaming
// snapshot is queryable while it grows.
func runServe(args []string) {
	fs := flag.NewFlagSet("mevscope serve", flag.ExitOnError)
	var (
		from        = fs.String("from", "", "archive directory to serve")
		addr        = fs.String("addr", "127.0.0.1:8571", "listen address")
		cacheSize   = fs.Int("cache", 16, "analyzed-report LRU capacity (0 = the default 16)")
		partialMiB  = fs.Int64("partial-cache-mib", 0, "month-partial cache budget in MiB (0 = the default 256)")
		metrics     = fs.Bool("metrics", true, "expose request metrics at /metrics (Prometheus text; ?format=json)")
		pprofFlag   = fs.Bool("pprof", false, "mount net/http/pprof profiling endpoints under /debug/pprof/")
		parallelism = fs.Int("parallel", 0, "analysis worker-pool size (0 = all cores; a report's months merge on one worker)")
		live        = fs.Bool("live", false, "simulate a world in the background and serve its streaming snapshot (?source=live)")
		seed        = fs.Int64("seed", 42, "live simulation seed")
		scen        = fs.String("scenario", "baseline", "live scenario: "+strings.Join(scenario.Names(), ", "))
		bpm         = fs.Uint64("bpm", 600, "live blocks per simulated month")
		months      = fs.Int("months", 0, "limit the live window to the first N months (0 = all)")
		quiet       = fs.Bool("q", false, "suppress progress output")
	)
	fs.Parse(args)
	noPositional(fs)
	if err := checkServe(*from, *live, *cacheSize, *partialMiB); err != nil {
		fail(2, err)
	}
	var liveOnly []string
	fs.Visit(func(f *flag.Flag) {
		if liveOnlyFlagNames[f.Name] {
			liveOnly = append(liveOnly, "-"+f.Name)
		}
	})
	if err := checkServeLiveFlags(*live, liveOnly); err != nil {
		fail(2, err)
	}
	if err := checkScenario(*scen); err != nil {
		fail(2, err)
	}
	if err := checkServeArchive(*from); err != nil {
		fail(1, err)
	}
	srv, err := query.New(query.Config{
		Archive:           *from,
		AnalyzePartial:    mevscope.AnalyzeDatasetPartial,
		Workers:           *parallelism,
		CacheSize:         *cacheSize,
		PartialCacheBytes: *partialMiB << 20,
		DisableMetrics:    !*metrics,
		EnablePprof:       *pprofFlag,
	})
	if err != nil {
		fail(1, err)
	}
	if *live {
		if err := startLive(srv, mevscope.Options{
			Seed: *seed, BlocksPerMonth: *bpm, Months: *months,
			Scenario: *scen, Parallelism: *parallelism,
		}, *quiet); err != nil {
			fail(1, err)
		}
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(1, err)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "mevscope: serving on http://%s/v1/ (archive %q, cache %d)\n", ln.Addr(), *from, *cacheSize)
	}
	if err := serve(ln, srv); err != nil {
		fail(1, err)
	}
}

// The connection bounds of `mevscope serve`. A client has
// readHeaderTimeout to send a request's headers and idleTimeout between
// keep-alive requests. There is no write timeout: a cold full-window
// build can legitimately outlast any fixed bound. On SIGINT or SIGTERM
// in-flight requests get drainTimeout to finish.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	drainTimeout      = 30 * time.Second
)

// serve answers requests on ln until SIGINT or SIGTERM, then stops
// accepting connections and waits up to drainTimeout for in-flight
// requests; it returns nil once they have all finished.
func serve(ln net.Listener, h http.Handler) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hs := &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal terminates at once
	drain, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := hs.Shutdown(drain); err != nil {
		return fmt.Errorf("serve: draining: %w", err)
	}
	return nil
}

// startLive wires a background simulation's streaming follower into the
// server: the follower advances block by block under a mutex and every
// ?source=live query snapshots the follower's incremental report at the
// current height.
func startLive(srv *query.Server, opts mevscope.Options, quiet bool) error {
	cfg, err := opts.Config()
	if err != nil {
		return err
	}
	s, err := sim.New(cfg)
	if err != nil {
		return err
	}
	var mu sync.Mutex
	f := stream.ForSim(s, opts.Parallelism)
	srv.SetLive(query.Live{
		// Height keys the cache and runs per request; only a cache miss
		// at a new height pays a snapshot (and briefly pauses stepping).
		Height: func() uint64 {
			mu.Lock()
			defer mu.Unlock()
			return f.Blocks()
		},
		Snapshot: func() (*measure.Report, uint64) {
			mu.Lock()
			defer mu.Unlock()
			return f.Report(), f.Blocks()
		},
		// Lag is how many sealed blocks the follower has not yet consumed
		// — the serving tier's freshness gauge (mevscope_live_lag_blocks).
		// Stepping and syncing run under the same mutex, so it reads as a
		// consistent pair.
		Lag: func() uint64 {
			mu.Lock()
			defer mu.Unlock()
			return s.Chain.NextNumber() - f.Next()
		},
	})
	if !quiet {
		fmt.Fprintf(os.Stderr, "mevscope: live world growing to block %d (seed %d, scenario %s)\n",
			s.EndBlock(), opts.Seed, opts.Scenario)
	}
	go func() {
		end := s.EndBlock()
		for s.Chain.NextNumber() <= end {
			mu.Lock()
			err := s.Step()
			if err == nil {
				_, err = f.Sync()
			}
			mu.Unlock()
			if err != nil {
				fmt.Fprintln(os.Stderr, "mevscope: live simulation stopped:", err)
				return
			}
		}
		if !quiet {
			fmt.Fprintf(os.Stderr, "mevscope: live world complete at block %d\n", s.Chain.Head().Header.Number)
		}
	}()
	return nil
}

// writeCSV optionally writes the CSV artifact directory.
func writeCSV(rep *measure.Report, dir string, quiet bool) {
	if dir == "" {
		return
	}
	if err := rep.WriteCSVDir(dir); err != nil {
		fail(1, fmt.Errorf("csv: %w", err))
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "mevscope: CSV artifacts written to %s/\n", dir)
	}
}

// printSection renders the whole report ("all") or one artifact of it
// to stdout; section is a name checkSection accepted. One artifact
// prints as measure.WriteText renders it, byte for byte what
// /v1/artifact/NAME?format=text serves.
func printSection(rep *measure.Report, section string) {
	if section == "all" {
		mevscope.WriteReportTo(os.Stdout, rep)
		return
	}
	a, _ := rep.Artifact(section)
	measure.WriteText(os.Stdout, a)
}

func pick(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}

// checkEnsemble refuses the study flags -seeds cannot honour: an
// ensemble prints only its mean ± stddev summary (Table 1, Figures 3, 4
// and 9, the headline scalars) to stdout, so a single -section or a -csv
// directory would be silently dropped.
func checkEnsemble(section, csvDir string) error {
	if section != "all" {
		return fmt.Errorf("-seeds prints the ensemble's mean ± stddev summary (Table 1, Figures 3, 4 and 9, headline scalars); it cannot print -section %s", section)
	}
	if csvDir != "" {
		return fmt.Errorf("-seeds prints the ensemble's mean ± stddev summary to stdout; it writes no -csv directory")
	}
	return nil
}

// runEnsemble fans the runs out and prints the merged mean ± stddev
// report.
func runEnsemble(base mevscope.Options, seeds []int64, parallelism int, quiet bool) {
	if !quiet {
		fmt.Fprintf(os.Stderr, "mevscope: ensemble of %d seeds under scenario %s at %d blocks/month...\n",
			len(seeds), base.Scenario, base.BlocksPerMonth)
	}
	t0 := time.Now()
	ens, err := mevscope.RunEnsembleWith(base, seeds, parallelism)
	if err != nil {
		fail(1, err)
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "mevscope: %d runs merged in %v\n", len(ens.Seeds), time.Since(t0).Round(time.Millisecond))
	}
	rsp := base.Span.Child(obs.StageRender)
	ens.WriteSummary(os.Stdout)
	rsp.End()
}

// parseSeeds parses a comma-separated int64 list of distinct seeds.
func parseSeeds(s string) ([]int64, error) {
	parts := strings.Split(s, ",")
	out := make([]int64, 0, len(parts))
	seen := make(map[int64]bool, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.ParseInt(p, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q in -seeds", p)
		}
		if seen[v] {
			return nil, fmt.Errorf("seed %d listed twice in -seeds", v)
		}
		seen[v] = true
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-seeds given but no seeds parsed")
	}
	return out, nil
}
