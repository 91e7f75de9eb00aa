// Benchmarks: one per table and figure of the paper. Each benchmark
// regenerates its artifact from a shared simulated world and reports the
// headline numbers via b.ReportMetric, so `go test -bench=. -benchmem`
// doubles as the experiment harness (ROADMAP item 11 plans the
// paper-vs-measured scorecard).
package mevscope

import (
	"runtime"
	"sync"
	"testing"

	"mevscope/internal/core/ablate"
	"mevscope/internal/core/detect"
	"mevscope/internal/core/measure"
	"mevscope/internal/core/privinfer"
	"mevscope/internal/core/profit"
	"mevscope/internal/sim"
	"mevscope/internal/types"
)

// benchWorld is the shared simulated dataset for the per-artifact
// benchmarks. Built once; benchmarks then measure the regeneration cost of
// each artifact over it.
var (
	benchOnce  sync.Once
	benchStudy *Study
	benchIn    measure.Inputs
	benchInf   *privinfer.Inferrer
)

func benchSetup(b *testing.B) {
	b.Helper()
	benchOnce.Do(func() {
		study, err := Run(Options{Seed: 1234, BlocksPerMonth: 100})
		if err != nil {
			panic(err)
		}
		benchStudy = study
		benchIn = measure.Inputs{
			Chain:    study.Sim.Chain,
			FBBlocks: study.Sim.Relay.Blocks(),
			FBSet:    study.Sim.Relay.FlashbotsTxSet(),
			Detect:   study.Detected,
			Profits:  study.Profits,
			WETH:     study.Sim.World.WETH,
		}
		benchInf = study.Inferrer
	})
	if benchStudy == nil {
		b.Fatal("bench world failed to build")
	}
}

// BenchmarkSimulation measures the world generator itself: blocks
// simulated per op (3 months at 60 blocks/month). It reports blocks per
// CPU-second of the whole process (getrusage), the simulator speed
// figure minesim leads with, and allocations per block.
func BenchmarkSimulation(b *testing.B) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := processCPU()
	blocks := 0
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig(int64(i))
		cfg.BlocksPerMonth = 60
		cfg.Months = 3
		s, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
		blocks += s.Chain.Len()
	}
	cpu := processCPU() - cpu0
	runtime.ReadMemStats(&after)
	if cpu > 0 {
		b.ReportMetric(float64(blocks)/cpu.Seconds(), "blocks/cpu-s")
	}
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(blocks), "allocs/block")
}

// BenchmarkDetectorScan measures the full §3.1 heuristic sweep over the
// shared 2300-block chain — the paper's "crawl the archive node" step.
func BenchmarkDetectorScan(b *testing.B) {
	benchSetup(b)
	c := benchStudy.Sim.Chain
	b.ResetTimer()
	var res *detect.Result
	for i := 0; i < b.N; i++ {
		res = detect.ScanAll(c, benchStudy.Sim.World.WETH)
	}
	b.ReportMetric(float64(len(res.Sandwiches)), "sandwiches")
	b.ReportMetric(float64(len(res.Arbitrages)), "arbitrages")
	b.ReportMetric(float64(len(res.Liquidations)), "liquidations")
}

// BenchmarkProfitResolution measures the §3.1 profit computation.
func BenchmarkProfitResolution(b *testing.B) {
	benchSetup(b)
	comp := profit.New(benchStudy.Sim.Chain, benchStudy.Sim.Prices, benchStudy.Sim.World.WETH, benchIn.FBSet)
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n = len(comp.ResolveAll(benchStudy.Detected))
	}
	b.ReportMetric(float64(n), "records")
}

// BenchmarkTable1_MEVDatasetOverview regenerates Table 1.
func BenchmarkTable1_MEVDatasetOverview(b *testing.B) {
	benchSetup(b)
	var t measure.Table1
	for i := 0; i < b.N; i++ {
		t = measure.BuildTable1(benchIn)
	}
	b.ReportMetric(float64(t.Total.Extractions), "extractions")
	b.ReportMetric(t.Total.Pct(t.Total.ViaFlashbots), "pct_flashbots")
}

// BenchmarkFigure3_FlashbotsBlockRatio regenerates the monthly Flashbots
// block proportion series.
func BenchmarkFigure3_FlashbotsBlockRatio(b *testing.B) {
	benchSetup(b)
	var rows []measure.Fig3Row
	for i := 0; i < b.N; i++ {
		rows = measure.BuildFigure3(benchIn)
	}
	peak := 0.0
	for _, r := range rows {
		if r.Ratio() > peak {
			peak = r.Ratio()
		}
	}
	b.ReportMetric(100*peak, "peak_ratio_pct")
}

// BenchmarkFigure4_FlashbotsHashrate regenerates the hashrate estimate.
func BenchmarkFigure4_FlashbotsHashrate(b *testing.B) {
	benchSetup(b)
	var series []measure.MonthValue
	for i := 0; i < b.N; i++ {
		series = measure.BuildFigure4(benchIn)
	}
	final := 0.0
	if len(series) > 0 {
		final = series[len(series)-1].Value
	}
	b.ReportMetric(100*final, "final_hashrate_pct")
}

// BenchmarkFigure5_MinersWithNBlocks regenerates the miner-threshold
// distribution.
func BenchmarkFigure5_MinersWithNBlocks(b *testing.B) {
	benchSetup(b)
	var f measure.Fig5
	for i := 0; i < b.N; i++ {
		f = measure.BuildFigure5(benchIn)
	}
	b.ReportMetric(float64(f.MaxMinersInAnyMonth()), "peak_miners")
}

// BenchmarkFigure6_GasPriceCorrelation regenerates the sandwich/gas
// series; the paper's April-2021 dip shows up as the min of the pre-London
// months.
func BenchmarkFigure6_GasPriceCorrelation(b *testing.B) {
	benchSetup(b)
	var f measure.Fig6
	for i := 0; i < b.N; i++ {
		f = measure.BuildFigure6(benchIn)
	}
	b.ReportMetric(f.CorrNonFB, "corr_nonfb")
}

// BenchmarkFigure7_MEVTypes regenerates the searcher/transaction per-type
// series.
func BenchmarkFigure7_MEVTypes(b *testing.B) {
	benchSetup(b)
	var f measure.Fig7
	for i := 0; i < b.N; i++ {
		f = measure.BuildFigure7(benchIn)
	}
	b.ReportMetric(float64(len(f.Rows)), "months")
}

// BenchmarkFigure8_ProfitDistribution regenerates the four profit
// subpopulations.
func BenchmarkFigure8_ProfitDistribution(b *testing.B) {
	benchSetup(b)
	var f measure.Fig8
	for i := 0; i < b.N; i++ {
		f = measure.BuildFigure8(benchIn)
	}
	b.ReportMetric(f.SearcherFB.Mean, "searcher_fb_mean_eth")
	b.ReportMetric(f.SearcherNonFB.Mean, "searcher_nonfb_mean_eth")
	b.ReportMetric(f.MinerFB.Mean, "miner_fb_mean_eth")
	b.ReportMetric(f.MinerNonFB.Mean, "miner_nonfb_mean_eth")
}

// BenchmarkFigure9_PrivateMEVSplit regenerates the private/public split.
func BenchmarkFigure9_PrivateMEVSplit(b *testing.B) {
	benchSetup(b)
	if benchInf == nil {
		b.Skip("no observation window at this scale")
	}
	var f measure.Fig9
	for i := 0; i < b.N; i++ {
		f = measure.BuildFigure9(benchIn, benchInf)
	}
	b.ReportMetric(100*f.Split.FlashbotsShare(), "fb_pct")
	b.ReportMetric(100*f.Split.PrivateShare(), "private_pct")
	b.ReportMetric(100*f.Split.PublicShare(), "public_pct")
}

// BenchmarkBundleStats regenerates the §4.1 bundle statistics.
func BenchmarkBundleStats(b *testing.B) {
	benchSetup(b)
	var s measure.BundleStats
	for i := 0; i < b.N; i++ {
		s = measure.BuildBundleStats(benchIn)
	}
	b.ReportMetric(s.BundlesPerBlock.Mean, "bundles_per_block")
	b.ReportMetric(100*s.SingleTxShare(), "single_tx_pct")
	b.ReportMetric(float64(s.MaxBundleTxs), "max_bundle_txs")
}

// BenchmarkNegativeProfits regenerates the §5.2 unprofitable-sandwich
// statistics.
func BenchmarkNegativeProfits(b *testing.B) {
	benchSetup(b)
	var n measure.NegativeProfits
	for i := 0; i < b.N; i++ {
		n = measure.BuildNegativeProfits(benchIn)
	}
	b.ReportMetric(100*n.Share(), "unprofitable_pct")
}

// BenchmarkPrivateSandwiches regenerates the §6.2 window accounting.
func BenchmarkPrivateSandwiches(b *testing.B) {
	benchSetup(b)
	if benchInf == nil {
		b.Skip("no observation window at this scale")
	}
	var sp privinfer.SandwichSplit
	for i := 0; i < b.N; i++ {
		sp = benchInf.SplitSandwiches(benchStudy.Detected.Sandwiches)
	}
	b.ReportMetric(float64(sp.Total), "window_sandwiches")
}

// BenchmarkMinerPrivatePools regenerates the §6.3 account→miner
// attribution.
func BenchmarkMinerPrivatePools(b *testing.B) {
	benchSetup(b)
	if benchInf == nil {
		b.Skip("no observation window at this scale")
	}
	var links []privinfer.MinerLink
	for i := 0; i < b.N; i++ {
		links = benchInf.LinkPrivateSandwiches(benchStudy.Detected.Sandwiches)
	}
	single := 0
	for _, l := range links {
		if _, ok := l.SingleMiner(); ok {
			single++
		}
	}
	b.ReportMetric(float64(len(links)), "accounts")
	b.ReportMetric(float64(single), "single_miner_accounts")
}

// benchAnalyze measures the full measurement pipeline (detect + profit +
// inference + report) over the shared world at a fixed worker count.
func benchAnalyze(b *testing.B, workers int) {
	benchSetup(b)
	s := benchStudy.Sim
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AnalyzeWith(s, workers); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeSequential is the single-worker measurement pipeline —
// the baseline the parallel pipeline is compared against.
func BenchmarkAnalyzeSequential(b *testing.B) { benchAnalyze(b, 1) }

// BenchmarkAnalyzeParallel2 runs the pipeline with a 2-worker pool.
func BenchmarkAnalyzeParallel2(b *testing.B) { benchAnalyze(b, 2) }

// BenchmarkAnalyzeParallel4 runs the pipeline with a 4-worker pool; on a
// ≥4-core machine wall-clock should be well under the sequential run.
func BenchmarkAnalyzeParallel4(b *testing.B) { benchAnalyze(b, 4) }

// BenchmarkAnalyzeParallelNumCPU runs the default Analyze configuration.
func BenchmarkAnalyzeParallelNumCPU(b *testing.B) { benchAnalyze(b, -1) }

// BenchmarkEnsemble4Seeds measures a small multi-seed ensemble end to end
// (4 seeds × 3 months), the scenario-sweep workload.
func BenchmarkEnsemble4Seeds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := Options{BlocksPerMonth: 40, Months: 3, Scenario: "baseline"}
		seeds := []int64{int64(4*i + 1), int64(4*i + 2), int64(4*i + 3), int64(4*i + 4)}
		if _, err := RunEnsembleWith(base, seeds, -1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullPipeline measures simulate+measure end to end at small
// scale — the cost of a complete reproduction run.
func BenchmarkFullPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Run(Options{Seed: int64(i), BlocksPerMonth: 40}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRandomOrdering runs the §8.3 random-ordering
// countermeasure experiment: shuffle every sandwich's block and measure
// attack survival. The paper's back-of-envelope gives 25 % (two
// independent coin flips); the exact uniform-permutation survival is 1/6
// for the strict triple and 1/2 for a single frontrun — both reported.
func BenchmarkAblationRandomOrdering(b *testing.B) {
	benchSetup(b)
	var res ablate.OrderingResult
	for i := 0; i < b.N; i++ {
		res = ablate.RandomOrdering(benchStudy.Sim.Chain, benchStudy.Detected.Sandwiches, 200, int64(i))
	}
	b.ReportMetric(100*res.SurvivalRate(), "sandwich_survival_pct")
	b.ReportMetric(100*res.SingleSurvivalRate(), "frontrun_survival_pct")
}

// BenchmarkAblationTipSensitivity sweeps counterfactual sealed-bid tip
// fractions over the measured Flashbots extractions — the §8.2 argument
// that the auction design transfers searcher income to miners.
func BenchmarkAblationTipSensitivity(b *testing.B) {
	benchSetup(b)
	fracs := []float64{0.5, 0.7, 0.85, 0.95}
	var pts []ablate.TipPoint
	for i := 0; i < b.N; i++ {
		pts = ablate.TipSensitivity(benchStudy.Sim.Chain, benchStudy.Profits, fracs)
	}
	for _, p := range pts {
		b.ReportMetric(p.MeanNetETH, "net_eth_at_"+fmtFrac(p.TipFrac))
	}
}

func fmtFrac(f float64) string {
	return string([]byte{'0' + byte(f*10)%10, '0' + byte(f*100)%10}) + "pct_tip"
}

// BenchmarkAblationNoFlashbots runs the counterfactual the paper could
// not: a world where Flashbots never launches. It reports the average gas
// price over Mar-Aug 2021 with and without Flashbots — testing the §8.2
// takeaway that "Flashbots has ... reduced gas prices" by keeping priority
// gas auctions alive in the counterfactual.
func BenchmarkAblationNoFlashbots(b *testing.B) {
	for i := 0; i < b.N; i++ {
		gasWith := ablationAvgGas(b, int64(900+i), false)
		gasWithout := ablationAvgGas(b, int64(900+i), true)
		b.ReportMetric(gasWith, "avg_gas_gwei_with_fb")
		b.ReportMetric(gasWithout, "avg_gas_gwei_without_fb")
		b.ReportMetric(gasWithout-gasWith, "gas_saved_gwei")
	}
}

// ablationAvgGas runs months 0..15 and averages effective gas prices over
// the post-launch, pre-London months (Mar-Jul 2021).
func ablationAvgGas(b *testing.B, seed int64, disable bool) float64 {
	cfg := sim.DefaultConfig(seed)
	cfg.BlocksPerMonth = 60
	cfg.Months = 15
	cfg.DisableFlashbots = disable
	s, err := sim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	var sum float64
	var n int
	for m := 10; m <= 14; m++ {
		for _, blk := range s.Chain.BlocksInMonth(types.Month(m)) {
			for _, rcpt := range blk.Receipts {
				sum += float64(rcpt.EffectiveGasPrice) / float64(types.Gwei)
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

var (
	mergeBenchOnce   sync.Once
	mergeBenchParts  []*measure.Partial
	mergeBenchReport *measure.Report
)

// BenchmarkMergePartials measures one full-window merge of warm month
// partials — the work a report-cache miss over cached months does — on
// the serving benchmark's world: seed 1, 100 blocks per month, 4
// vantages. Run it with -benchmem.
func BenchmarkMergePartials(b *testing.B) {
	mergeBenchOnce.Do(func() {
		mergeBenchParts = archivedPartials(b, Options{Seed: 1, BlocksPerMonth: 100, Vantages: 4})
	})
	if len(mergeBenchParts) == 0 {
		b.Fatal("merge bench world failed to build")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := measure.MergePartials(mergeBenchParts, "", nil)
		if err != nil {
			b.Fatal(err)
		}
		mergeBenchReport = rep
	}
}
