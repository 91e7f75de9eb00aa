// Package mevscope reproduces the measurement study "A Flash(bot) in the
// Pan: Measuring Maximal Extractable Value in Private Pools" (IMC 2022)
// over a synthetic Ethereum/DeFi world.
//
// The pipeline has the same three stages as the paper:
//
//  1. a world generates history — traders, MEV searchers, miners, the
//     Flashbots relay and other private pools (internal/sim);
//  2. collection — the chain plays archive node, an observer node records
//     public pending transactions, and the Flashbots relay publishes its
//     blocks API;
//  3. measurement — heuristic detectors, profit computation, private-
//     transaction inference and the monthly aggregations behind every
//     table and figure (internal/core).
//
// The measurement stage runs through a worker pool: blocks fan out across
// runtime.NumCPU() workers (or Options.Parallelism) and partial results
// merge deterministically by block number, so any worker count produces a
// byte-identical report.
//
// Quick start:
//
//	study, err := mevscope.Run(mevscope.Options{Seed: 1, BlocksPerMonth: 300})
//	if err != nil { ... }
//	study.Report.Table1.Format() // Table 1, the MEV dataset overview
//
// Beyond the single replay, named scenarios (internal/scenario) rewrite
// the world — no-flashbots, hashpower-skew, high-private, post-london —
// and RunEnsemble sweeps many seeds per scenario, merging every cell of
// every artifact into a mean and standard deviation over the seeds:
//
//	ens, err := mevscope.RunEnsemble([]int64{1, 2, 3, 4, 5}, "no-flashbots", 4)
//	if err != nil { ... }
//	fmt.Print(ens.Format())
//
// The batch pipeline is one of two consumers of the measurement core:
// internal/stream follows a world block by block and keeps a live report
// incrementally (byte-identical to the batch one at every month
// boundary), and internal/archive persists the collected dataset as a
// segmented on-disk store so a world is simulated once and re-analyzed
// many times (`mevscope archive` / `mevscope analyze`), each archive
// report assembled from AnalyzeDatasetPartial's month partials.
//
// Every table and figure of a report is also exposed as a structured
// artifact (measure.Artifact: name, typed column schema, typed rows,
// scalar summary stats). The text renderer behind WriteReportTo, the CSV
// and JSON encoders, and the `mevscope serve` HTTP API (internal/query)
// all walk that one model, so every output format is an encoding of the
// same value. Ensembles expose the same model: Ensemble.Artifact and
// Ensemble.Artifacts merge each artifact across the seeds' reports
// (measure.MergeArtifacts), with mean±stddev cells and a seeds column
// counting the runs behind each row.
package mevscope

import (
	"fmt"
	"io"

	"mevscope/internal/core/detect"
	"mevscope/internal/core/measure"
	"mevscope/internal/core/privinfer"
	"mevscope/internal/core/profit"
	"mevscope/internal/dataset"
	"mevscope/internal/obs"
	"mevscope/internal/p2p"
	"mevscope/internal/parallel"
	"mevscope/internal/scenario"
	"mevscope/internal/sim"
)

// Options configures a full study run.
type Options struct {
	// Seed drives every random choice; equal seeds give identical runs.
	Seed int64
	// BlocksPerMonth compresses each of the 23 study months (mainnet has
	// ≈190k). Zero selects the default scale.
	BlocksPerMonth uint64
	// Months limits the window for quick runs; zero runs all 23.
	Months int
	// NumMiners sizes the miner set; zero selects the default 55.
	NumMiners int
	// NumTraders sizes the ordinary-user population.
	NumTraders int
	// Scenario names the counterfactual world to simulate (see
	// internal/scenario: baseline, no-flashbots, hashpower-skew,
	// high-private, post-london, single-vantage, multi-vantage-union,
	// degraded-observer). Empty selects the baseline.
	Scenario string
	// Vantages places that many observation vantages evenly around the
	// gossip network (p2p.SpreadVantages); zero keeps the scenario's
	// layout (the paper's single node-0 observer by default).
	Vantages int
	// Topology selects the gossip graph shape (ring, ring-chords,
	// small-world); empty keeps the default ring-chords graph.
	Topology string
	// View selects the observation view the §6 inference classifies
	// against: "", "vantage:N", "union" or "quorum:K". Empty defers to
	// the scenario's view (the primary vantage for most).
	View string
	// Parallelism sizes the measurement worker pool; zero or negative
	// selects runtime.NumCPU(), 1 forces the sequential path.
	Parallelism int
	// Span, when non-nil, is the tracing parent the run records itself
	// under (internal/obs): simulation sealing as a "sim" span with
	// per-month children, then the measurement stages. Tracing never
	// perturbs the report; nil (the default) disables it at zero cost.
	Span *obs.Span
}

// Params converts the options into scenario scale parameters.
func (o Options) Params() scenario.Params {
	return scenario.Params{
		Seed:           o.Seed,
		BlocksPerMonth: o.BlocksPerMonth,
		Months:         o.Months,
		NumMiners:      o.NumMiners,
		NumTraders:     o.NumTraders,
	}
}

// Config resolves the options into the simulation config of the named
// scenario, applying the observation-network overrides (-vantages,
// -topology) on top of whatever the scenario chose.
func (o Options) Config() (sim.Config, error) {
	sc, err := scenario.MustLookup(o.Scenario)
	if err != nil {
		return sim.Config{}, err
	}
	cfg := sc.Config(o.Params())
	if o.Topology != "" {
		top, err := p2p.ParseTopology(o.Topology)
		if err != nil {
			return sim.Config{}, err
		}
		cfg.Net.Topology = top
	}
	if o.Vantages < 0 {
		return sim.Config{}, fmt.Errorf("mevscope: Vantages must be ≥ 0, got %d", o.Vantages)
	}
	if o.Vantages > 0 {
		cfg.Net.Vantages = p2p.SpreadVantages(cfg.Net.Nodes, o.Vantages, cfg.Net.ObserverMissRate)
	}
	// The vantage count is fully resolved here, so an out-of-range
	// vantage:N or quorum:K fails now — not after minutes of simulation.
	vantages := len(cfg.Net.Vantages)
	if vantages == 0 {
		vantages = 1
	}
	if err := dataset.CheckViewFor(o.resolvedView(), vantages); err != nil {
		return sim.Config{}, err
	}
	return cfg, nil
}

// resolvedView is the observation view a run classifies against: the
// explicit option, else the scenario's view.
func (o Options) resolvedView() string {
	if o.View != "" {
		return o.View
	}
	if sc, ok := scenario.Lookup(o.Scenario); ok {
		return sc.View
	}
	return ""
}

// Study is the outcome of a run: the simulated world plus every
// measurement artifact.
type Study struct {
	Sim *sim.Sim
	// Detected is the raw detector sweep (archive-node view only).
	Detected *detect.Result
	// Profits are the per-extraction economics.
	Profits []profit.Record
	// Inferrer is the §6 private-transaction classifier (nil when the run
	// ends before the observation window opens).
	Inferrer *privinfer.Inferrer
	// Report carries every table and figure.
	Report *measure.Report
}

// Run simulates the study window under the configured scenario and
// executes the full measurement pipeline over the result, classifying
// private transactions against the resolved observation view.
func Run(opts Options) (*Study, error) {
	cfg, err := opts.Config()
	if err != nil {
		return nil, err
	}
	s, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	simSp := opts.Span.Child(obs.StageSim)
	s.SetSpan(simSp)
	if err := s.Run(); err != nil {
		simSp.End()
		return nil, err
	}
	simSp.SetBlocks(s.Chain.Len())
	simSp.End()
	ds := dataset.FromSim(s)
	ds.View = opts.resolvedView()
	st, err := AnalyzeDatasetTraced(ds, opts.Parallelism, opts.Span)
	if err != nil {
		return nil, err
	}
	st.Sim = s
	return st, nil
}

// Analyze runs the measurement pipeline over a completed simulation,
// fanning per-block work across runtime.NumCPU() workers.
func Analyze(s *sim.Sim) (*Study, error) {
	return AnalyzeWith(s, -1)
}

// AnalyzeWith runs the measurement pipeline with an explicit worker-pool
// size: detection fans blocks across workers, profit resolution fans
// extractions, inference fans classifications and the report builders run
// concurrently. Partial results merge deterministically (by block number,
// then detector order), so every worker count — including 1, the fully
// sequential path — produces a byte-identical report for the same
// simulation. workers < 1 selects runtime.NumCPU().
func AnalyzeWith(s *sim.Sim, workers int) (*Study, error) {
	st, err := AnalyzeDataset(dataset.FromSim(s), workers)
	if err != nil {
		return nil, err
	}
	st.Sim = s
	return st, nil
}

// AnalyzeDataset runs the measurement pipeline over a collected dataset —
// the sim-independent entry point behind AnalyzeWith, and the reference
// the month-partial assembly behind `mevscope analyze` and `mevscope
// serve`, and the streaming follower's snapshots, are tested against.
// Study.Sim is nil in the result.
func AnalyzeDataset(ds *dataset.Dataset, workers int) (*Study, error) {
	return AnalyzeDatasetTraced(ds, workers, nil)
}

// AnalyzeDatasetTraced is AnalyzeDataset with the pipeline's flight
// recorder attached: each measurement stage (detect, profit, aggregate,
// build, infer) records a span — with block/tx counts, pool size and
// per-worker busy time — under the given parent. A nil parent selects
// the exact untraced path; the report is byte-identical either way.
func AnalyzeDatasetTraced(ds *dataset.Dataset, workers int, sp *obs.Span) (*Study, error) {
	in, err := analysisInputs(ds, workers, sp)
	if err != nil {
		return nil, err
	}
	inf, err := in.Inferrer()
	if err != nil {
		return nil, err
	}
	report := measure.Build(in, inf)
	return &Study{Detected: in.Detect, Profits: in.Profits, Inferrer: inf, Report: report}, nil
}

// AnalyzeDatasetPartial runs the measurement pipeline over a
// single-month dataset and freezes the result as a measure.Partial —
// the memoization unit of the query layer's partial cache. The dataset
// must cover exactly one study month: an archive.ReadRange of [m, m],
// or an archive.Shared.ReadMonth of m, whose observation network may run
// past m and carries the build's shared coverage table. ds.View is
// validated and otherwise ignored: the partial keeps the month's capture
// of every vantage, so one partial serves every view. Under the month
// stability and prefix coverage invariants (see measure.Partial) either
// dataset yields the same partial, and measure.MergePartials assembles
// contiguous partials into a report byte-identical to AnalyzeDataset
// over the same range under any view.
func AnalyzeDatasetPartial(ds *dataset.Dataset, workers int, sp *obs.Span) (*measure.Partial, error) {
	if _, err := ds.ResolveView(); err != nil {
		return nil, err
	}
	in, err := analysisInputs(ds, workers, sp)
	if err != nil {
		return nil, err
	}
	return measure.NewPartial(in)
}

// analysisInputs runs what a full build and a month partial share: the
// detector sweep and profit resolution, with the dataset's observation
// network and view attached for the §6 inference.
func analysisInputs(ds *dataset.Dataset, workers int, sp *obs.Span) (measure.Inputs, error) {
	if ds.Chain == nil || ds.Chain.Head() == nil {
		return measure.Inputs{}, fmt.Errorf("mevscope: dataset has no blocks")
	}
	workers = parallel.Workers(workers)
	c := ds.Chain

	res := detect.ScanParallelSpan(c, ds.WETH, c.Timeline.StartBlock, c.Head().Header.Number, workers, sp)
	comp := profit.New(c, ds.Prices, ds.WETH, ds.FBSet)
	profits := comp.ResolveAllParallelSpan(res, workers, sp)

	return measure.Inputs{
		Chain:    c,
		FBBlocks: ds.FBBlocks,
		FBSet:    ds.FBSet,
		Detect:   res,
		Profits:  profits,
		WETH:     ds.WETH,
		Workers:  workers,
		Vantages: ds.VantageList(),
		Coverage: ds.Coverage,
		View:     ds.View,
		Span:     sp,
	}, nil
}

// AnalyzeDatasetProjection builds a subset of a full dataset's report
// artifacts — the header-level ones measure.BuildProjection accepts —
// skipping detection, profit resolution and inference entirely. The
// artifact values are identical to a full AnalyzeDataset's; the rest of
// the returned report is zero. No serving path calls it: the query
// layer serves every artifact off its key's full report.
func AnalyzeDatasetProjection(ds *dataset.Dataset, workers int, artifacts []string, sp *obs.Span) (*measure.Report, error) {
	if ds.Chain == nil || ds.Chain.Head() == nil {
		return nil, fmt.Errorf("mevscope: dataset has no blocks")
	}
	in := measure.Inputs{
		Chain:    ds.Chain,
		FBBlocks: ds.FBBlocks,
		FBSet:    ds.FBSet,
		WETH:     ds.WETH,
		Workers:  parallel.Workers(workers),
		Span:     sp,
	}
	return measure.BuildProjection(in, artifacts)
}

// WriteReport renders every reproduced artifact as text, in paper order.
func (st *Study) WriteReport(w io.Writer) {
	WriteReportTo(w, st.Report)
}

// WriteReportTo renders a report as text, in paper order. It is a thin
// walk over the report's structured artifact model (measure.Artifacts):
// the same artifacts back the CSV and JSON encoders and the `mevscope
// serve` HTTP API, so every format is an encoding of one value. It is the
// shared renderer behind Study.WriteReport and the streaming follower's
// live snapshots, so batch and streaming output are comparable byte for
// byte.
func WriteReportTo(w io.Writer, r *measure.Report) {
	measure.WriteReportText(w, r)
}
