package scenario

import (
	"testing"

	"mevscope/internal/sim"
	"mevscope/internal/types"
)

// TestHeadHashesPinned pins the simulated chain itself. The golden report
// pins only numbers derived from the chain, which a changed chain could
// survive; a head block hash covers every header, transaction and
// receipt before it. The worlds: the golden report's (seed 1234, bpm
// 100), perfbench's (seed 1, bpm 100), and a post-London one whose
// blocks all carry a base fee and which executes flash loans.
func TestHeadHashesPinned(t *testing.T) {
	cases := []struct {
		scenario string
		seed     int64
		want     string
	}{
		{Baseline, 1234, "0x97e768b442303e38c567daa7f46415b5acd36303b8542752e3e3188de51cccbc"},
		{Baseline, 1, "0x893ab28359d65c471cc539306d311933c450c05f11542bc9d6cdeb0a6f86d782"},
		{PostLondon, 1234, "0x3189559c1ea44cbc800b6c956e7dbf21e5460887377e2b8fa00797d36c182561"},
	}
	for _, c := range cases {
		sc, _ := Lookup(c.scenario)
		s, err := sim.New(sc.Config(Params{Seed: c.seed, BlocksPerMonth: 100}))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if got := s.Chain.Head().Hash().String(); got != c.want {
			t.Errorf("%s seed %d: head block hash %s, want %s", c.scenario, c.seed, got, c.want)
		}
		if c.scenario != PostLondon {
			continue
		}
		flash := 0
		for _, b := range s.Chain.Blocks() {
			if b.Header.BaseFee == 0 {
				t.Fatalf("post-london block %d has no base fee", b.Header.Number)
			}
			for _, tx := range b.Txs {
				if tx.Payload.Kind == types.TxFlashLoan {
					flash++
				}
			}
		}
		if flash == 0 {
			t.Error("the post-london world executed no flash loan, so its pin does not cover them")
		}
	}
}
