package mevscope

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"mevscope/internal/core/measure"
	"mevscope/internal/obs"
	"mevscope/internal/parallel"
)

// Ensemble is a multi-seed scenario sweep: the per-seed reports, and a
// merged view of them that mirrors Report.Artifact/Artifacts, with every
// numeric cell the mean ± standard deviation over the seeds.
type Ensemble struct {
	Scenario string
	// Seeds are the run seeds in ascending order; the merge is computed in
	// this order, so the result is independent of submission order and of
	// the parallelism the runs executed with.
	Seeds []int64
	// Reports are the per-seed reports, in Seeds order.
	Reports []*measure.Report
}

// RunEnsemble simulates one study per seed under the named scenario,
// fanning runs across min(parallelism, len(seeds)) goroutines, and keeps
// the per-seed reports for the merged view. parallelism < 1 selects
// runtime.NumCPU(). The merge iterates seeds in ascending order and each
// run is deterministic in its seed alone, so the result does not depend on
// seed order or parallelism. A seed listed twice is an error: it would
// count one run twice and shrink every standard deviation.
func RunEnsemble(seeds []int64, scenarioName string, parallelism int) (*Ensemble, error) {
	return RunEnsembleWith(Options{Scenario: scenarioName}, seeds, parallelism)
}

// RunEnsembleWith is RunEnsemble with explicit scale options; base.Seed is
// overridden by each entry of seeds. When runs fan out across seeds, each
// run's own analysis defaults to sequential (the cores are already busy)
// unless base.Parallelism asks otherwise.
func RunEnsembleWith(base Options, seeds []int64, parallelism int) (*Ensemble, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("mevscope: ensemble needs at least one seed")
	}
	if _, err := base.Config(); err != nil {
		return nil, err
	}
	sorted := append([]int64(nil), seeds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return nil, fmt.Errorf("mevscope: seed %d listed twice", sorted[i])
		}
	}

	// Split the pool between the seed fan-out and each run's own
	// analysis: with fewer seeds than workers, the leftover cores go to
	// the per-run pipelines instead of idling.
	parallelism = parallel.Workers(parallelism)
	fanOut := parallelism
	if fanOut > len(sorted) {
		fanOut = len(sorted)
	}
	if base.Parallelism < 1 {
		base.Parallelism = parallelism / fanOut
		if base.Parallelism < 1 {
			base.Parallelism = 1
		}
	}
	type outcome struct {
		report *measure.Report
		err    error
	}
	outcomes := parallel.MapSpan(base.Span, len(sorted), fanOut, func(i int) outcome {
		opts := base
		opts.Seed = sorted[i]
		rsp := base.Span.Child(obs.StageRun)
		rsp.SetLabel(fmt.Sprintf("seed %d", opts.Seed))
		opts.Span = rsp
		st, err := Run(opts)
		rsp.End()
		if err != nil {
			return outcome{err: err}
		}
		return outcome{report: st.Report}
	})
	ens := &Ensemble{Scenario: base.Scenario, Seeds: sorted, Reports: make([]*measure.Report, len(outcomes))}
	if ens.Scenario == "" {
		ens.Scenario = "baseline"
	}
	for i, o := range outcomes {
		if o.err != nil {
			return nil, fmt.Errorf("mevscope: seed %d: %w", sorted[i], o.err)
		}
		ens.Reports[i] = o.report
	}
	return ens, nil
}

// Artifact merges the named artifact of every seed's report
// (measure.MergeArtifacts); false for an unknown name. A seed whose
// Figure 9 window saw no sandwiches contributes no fig9 rows: its channel
// shares are 0/0, not a measurement.
func (e *Ensemble) Artifact(name string) (measure.Artifact, bool) {
	runs := make([]measure.Artifact, 0, len(e.Reports))
	for _, r := range e.Reports {
		a, ok := r.Artifact(name)
		if !ok {
			return measure.Artifact{}, false
		}
		if name == "fig9" && (r.Fig9 == nil || r.Fig9.Split.Total == 0) {
			a.Rows = nil
		}
		runs = append(runs, a)
	}
	return measure.MergeArtifacts(runs), true
}

// Artifacts merges every artifact of the reports, in paper order: the
// names and order of Report.Artifacts, with mean ± stddev cells ({"mean":
// …, "std": …} in JSON) and a seeds column on every row artifact.
func (e *Ensemble) Artifacts() []measure.Artifact {
	names := measure.ArtifactNames()
	out := make([]measure.Artifact, 0, len(names))
	for _, name := range names {
		a, _ := e.Artifact(name)
		out = append(out, a)
	}
	return out
}

// Format renders the ensemble summary as text, in paper order.
func (e *Ensemble) Format() string {
	var b strings.Builder
	e.WriteSummary(&b)
	return b.String()
}

// WriteSummary writes the ensemble's headline sections to w — Table 1,
// the Figure 3 and 4 monthly series, the Figure 9 channel shares and the
// headline scalars — each read off the merged artifacts.
func (e *Ensemble) WriteSummary(w io.Writer) {
	merged := func(name string) measure.Artifact {
		a, _ := e.Artifact(name)
		return a
	}
	cell := func(v measure.Value) string { return fmt.Sprintf("%.2f ± %.2f", v.Float, v.Std) }

	fmt.Fprintf(w, "=== Ensemble: scenario %q over %d seeds %v ===\n\n", e.Scenario, len(e.Seeds), e.Seeds)

	fmt.Fprintln(w, "--- Table 1 (mean ± stddev per cell) ---")
	fmt.Fprintf(w, "%-12s %18s %18s %18s %14s\n", "MEV Strategy", "Extractions", "Via Flashbots", "Via Flash Loans", "Via Both")
	for _, row := range merged("table1").Rows {
		fmt.Fprintf(w, "%-12s %18s %18s %18s %14s\n",
			row[0].Str, cell(row[1]), cell(row[2]), cell(row[3]), cell(row[4]))
	}
	fmt.Fprintln(w)

	for _, series := range []struct{ name, column string }{{"fig3", "ratio"}, {"fig4", "flashbots_hashrate"}} {
		a := merged(series.name)
		col := a.Column(series.column)
		fmt.Fprintf(w, "--- %s ---\n", a.Title)
		for _, row := range a.Rows {
			fmt.Fprintf(w, "%8s  %6.1f%% ± %4.1f%%\n", row[0].Month, 100*row[col].Float, 100*row[col].Std)
		}
		fmt.Fprintln(w)
	}

	if f9 := merged("fig9"); len(f9.Rows) > 0 {
		share, seeds := f9.Column("share"), f9.Column("seeds")
		fb, priv, pub := f9.Rows[0][share], f9.Rows[1][share], f9.Rows[2][share]
		fmt.Fprintf(w, "--- Figure 9: window sandwich channels (%d/%d runs) ---\n",
			f9.Rows[0][seeds].Int, len(e.Seeds))
		fmt.Fprintf(w, "via Flashbots %5.1f%% ± %4.1f%% | private %5.1f%% ± %4.1f%% | public %5.1f%% ± %4.1f%%\n\n",
			100*fb.Float, 100*fb.Std, 100*priv.Float, 100*priv.Std, 100*pub.Float, 100*pub.Std)
	}

	neg, top2 := merged("negatives").Scalar("share"), merged("concentration").Scalar("top2_share")
	fmt.Fprintln(w, "--- headline scalars ---")
	fmt.Fprintf(w, "bundles/block:            %s\n", cell(merged("bundles").Scalar("bundles_per_block_mean")))
	fmt.Fprintf(w, "unprofitable FB share:    %.2f%% ± %.2f%%\n", 100*neg.Float, 100*neg.Std)
	fmt.Fprintf(w, "top-2 miner share:        %.1f%% ± %.1f%%\n", 100*top2.Float, 100*top2.Std)
}
