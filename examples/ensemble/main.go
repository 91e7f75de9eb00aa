// Ensemble: put error bars on the paper's headline numbers and run a
// counterfactual the paper could not. The paper replays one 23-month
// history; a multi-seed ensemble reruns it under independent seeds and
// reports mean ± stddev per table cell — then the same sweep under the
// no-Flashbots scenario shows what the ablated world measures.
//
//	go run ./examples/ensemble
package main

import (
	"fmt"
	"os"

	"mevscope"
)

func main() {
	seeds := []int64{1, 2, 3, 4}
	base := mevscope.Options{BlocksPerMonth: 60, Scenario: "baseline"}

	ens, err := mevscope.RunEnsembleWith(base, seeds, -1)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	ens.WriteSummary(os.Stdout)

	// The §8.2 ablation, same seeds: Flashbots never launches.
	base.Scenario = "no-flashbots"
	base.Months = 16 // through the pre-London PGA era, where the ablation bites
	noFB, err := mevscope.RunEnsembleWith(base, seeds, -1)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println()
	noFB.WriteSummary(os.Stdout)

	fmt.Printf("\nFlashbots extractions: baseline %s vs no-flashbots %s\n",
		totalViaFlashbots(ens), totalViaFlashbots(noFB))
}

// totalViaFlashbots reads the merged Table 1 total row's Flashbots cell.
func totalViaFlashbots(e *mevscope.Ensemble) string {
	t1, _ := e.Artifact("table1")
	v := t1.Rows[len(t1.Rows)-1][t1.Column("via_flashbots")]
	return fmt.Sprintf("%.2f ± %.2f", v.Float, v.Std)
}
