package mevscope

import (
	"bytes"
	"strings"
	"testing"

	"mevscope/internal/core/measure"
	"mevscope/internal/sim"
)

// TestAnalyzeParallelDeterminism is the pipeline's core guarantee: for a
// fixed simulation, AnalyzeWith produces a byte-identical report for every
// worker count, including the fully sequential path.
func TestAnalyzeParallelDeterminism(t *testing.T) {
	cfg := sim.DefaultConfig(99)
	cfg.BlocksPerMonth = 60
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}

	render := func(workers int) []byte {
		st, err := AnalyzeWith(s, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		st.WriteReport(&buf)
		return buf.Bytes()
	}

	sequential := render(1)
	if len(sequential) == 0 {
		t.Fatal("empty sequential report")
	}
	for _, workers := range []int{2, 4, 7, 16} {
		if got := render(workers); !bytes.Equal(got, sequential) {
			t.Errorf("report with %d workers differs from sequential", workers)
		}
	}
	// The default path (NumCPU) must match too.
	st, err := Analyze(s)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	st.WriteReport(&buf)
	if !bytes.Equal(buf.Bytes(), sequential) {
		t.Error("Analyze (default workers) differs from sequential")
	}
}

// TestAnalyzeParallelStructuralEquality re-checks determinism at the
// artifact level (counts, not just rendering) on a second seed.
func TestAnalyzeParallelStructuralEquality(t *testing.T) {
	cfg := sim.DefaultConfig(1234)
	cfg.BlocksPerMonth = 40
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	seq, err := AnalyzeWith(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := AnalyzeWith(s, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Detected.Sandwiches) != len(par.Detected.Sandwiches) ||
		len(seq.Detected.Arbitrages) != len(par.Detected.Arbitrages) ||
		len(seq.Detected.Liquidations) != len(par.Detected.Liquidations) {
		t.Error("detector sweeps differ")
	}
	for i := range seq.Detected.Sandwiches {
		if seq.Detected.Sandwiches[i] != par.Detected.Sandwiches[i] {
			t.Fatalf("sandwich %d differs", i)
		}
	}
	if len(seq.Profits) != len(par.Profits) {
		t.Fatalf("profit counts differ: %d vs %d", len(seq.Profits), len(par.Profits))
	}
	for i := range seq.Profits {
		if seq.Profits[i].NetETH != par.Profits[i].NetETH || seq.Profits[i].Kind != par.Profits[i].Kind {
			t.Fatalf("profit record %d differs", i)
		}
	}
	if seq.Report.Table1.Total != par.Report.Table1.Total {
		t.Error("Table 1 totals differ")
	}
}

// TestRunEnsembleSeedOrderIndependence: the merged stats must not depend
// on the order seeds are passed in or on the fan-out parallelism.
func TestRunEnsembleSeedOrderIndependence(t *testing.T) {
	base := Options{BlocksPerMonth: 30, Scenario: "baseline"}
	a, err := RunEnsembleWith(base, []int64{5, 3, 9}, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunEnsembleWith(base, []int64{9, 5, 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := a.Format(), b.Format(); got != want {
		t.Errorf("ensemble reports differ across seed orderings:\n--- a ---\n%s\n--- b ---\n%s", got, want)
	}
	if len(a.Seeds) != 3 || a.Seeds[0] != 3 || a.Seeds[2] != 9 {
		t.Errorf("seeds not normalized ascending: %v", a.Seeds)
	}
}

// TestRunEnsembleStats sanity-checks the merged cells: means sit inside
// the per-seed range and a two-seed ensemble has nonzero spread somewhere.
func TestRunEnsembleStats(t *testing.T) {
	ens, err := RunEnsemble([]int64{1, 2}, "baseline", 2)
	if err != nil {
		t.Fatal(err)
	}
	t1, _ := ens.Artifact("table1")
	if len(t1.Rows) != 4 {
		t.Fatalf("Table1 rows = %d, want 4 (three strategies + total)", len(t1.Rows))
	}
	total := t1.Rows[3]
	if total[0].Str != "Total" {
		t.Errorf("last row = %q", total[0].Str)
	}
	if n := total[t1.Column("seeds")].Int; n != 2 {
		t.Errorf("row seeds = %d, want 2", n)
	}
	ex := total[t1.Column("extractions")]
	if ex.Float <= 0 {
		t.Error("no extractions measured")
	}
	lo, hi := ensembleRange(ens, func(r *measure.Report) int { return r.Table1.Total.Extractions })
	if ex.Float < lo || ex.Float > hi {
		t.Errorf("mean %v outside per-seed range [%v, %v]", ex.Float, lo, hi)
	}
	fig3, _ := ens.Artifact("fig3")
	fig4, _ := ens.Artifact("fig4")
	if len(fig3.Rows) == 0 || len(fig4.Rows) == 0 {
		t.Error("monthly series missing")
	}
	fig9, _ := ens.Artifact("fig9")
	if len(fig9.Rows) == 0 || fig9.Rows[0][fig9.Column("seeds")].Int != 2 {
		t.Errorf("Fig9 rows = %v, want 2 runs each (observer live at this scale)", fig9.Rows)
	}
}

// ensembleRange is the per-seed minimum and maximum of one report cell.
func ensembleRange(ens *Ensemble, cell func(*measure.Report) int) (lo, hi float64) {
	for i, r := range ens.Reports {
		x := float64(cell(r))
		if i == 0 || x < lo {
			lo = x
		}
		if i == 0 || x > hi {
			hi = x
		}
	}
	return lo, hi
}

// TestRunEnsembleScenario runs the no-Flashbots ablation ensemble and
// checks the counterfactual actually bites: no Flashbots extractions.
func TestRunEnsembleScenario(t *testing.T) {
	ens, err := RunEnsembleWith(Options{BlocksPerMonth: 20, Months: 12, Scenario: "no-flashbots"}, []int64{4, 8}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ens.Scenario != "no-flashbots" {
		t.Errorf("scenario = %q", ens.Scenario)
	}
	t1, _ := ens.Artifact("table1")
	total := t1.Rows[len(t1.Rows)-1]
	fb := total[t1.Column("via_flashbots")]
	if _, hi := ensembleRange(ens, func(r *measure.Report) int { return r.Table1.Total.ViaFlashbots }); fb.Float != 0 || hi != 0 {
		t.Errorf("no-flashbots world still shows Flashbots extractions: %+v (per-seed max %v)", fb, hi)
	}
	if total[t1.Column("extractions")].Float == 0 {
		t.Error("MEV should persist in the public auction")
	}
}

func TestRunEnsembleRejectsBadInput(t *testing.T) {
	if _, err := RunEnsemble(nil, "baseline", 1); err == nil {
		t.Error("empty seed list should error")
	}
	if _, err := RunEnsemble([]int64{1}, "not-a-scenario", 1); err == nil {
		t.Error("unknown scenario should error")
	}
	if _, err := RunEnsemble([]int64{1, 1}, "baseline", 1); err == nil || !strings.Contains(err.Error(), "seed 1") {
		t.Errorf("duplicate seed should error naming it, got %v", err)
	}
}
