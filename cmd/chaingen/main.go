// Command chaingen generates a synthetic study dataset and persists the
// collection-script outputs — MEV records, pending-transaction
// observations and the Flashbots blocks API dump — as JSON-lines files,
// mirroring the paper's MongoDB collections ("we make our datasets and
// collection code openly available").
//
// Usage:
//
//	chaingen [-seed N] [-bpm BLOCKS] [-out DIR] [-vantages N] [-topology NAME]
//
// With -vantages N the gossip network carries N observation vantages and
// the pending-transactions collection gains a per-record vantage column
// (the primary vantage is 0), mirroring mempool-dumpster's per-source
// first-seen logs; -topology selects the gossip graph shape
// (ring-chords, ring, small-world).
//
// Stray positional arguments, a zero -bpm, an empty -out, a negative
// -vantages and an unknown -topology are rejected up front with exit
// status 2.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"mevscope"
	"mevscope/internal/p2p"
	"mevscope/internal/types"
)

// mevDoc is one row of the mev collection.
type mevDoc struct {
	Kind         string  `json:"kind"`
	Block        uint64  `json:"block"`
	Month        string  `json:"month"`
	Extractor    string  `json:"extractor"`
	GainETH      float64 `json:"gain_eth"`
	CostETH      float64 `json:"cost_eth"`
	NetETH       float64 `json:"net_eth"`
	ViaFlashbots bool    `json:"via_flashbots"`
	ViaFlashLoan bool    `json:"via_flash_loan"`
}

// pendingDoc is one row of the pending-transactions collection.
type pendingDoc struct {
	Hash           string `json:"hash"`
	FirstSeenBlock uint64 `json:"first_seen_block"`
	Hops           int    `json:"hops"`
	// Vantage is the observation vantage that recorded the row (0 is the
	// primary observer); Node its position in the gossip graph.
	Vantage int `json:"vantage"`
	Node    int `json:"node"`
}

// fbBlockDoc is one row of the Flashbots blocks API dump.
type fbBlockDoc struct {
	BlockNumber uint64  `json:"block_number"`
	Miner       string  `json:"miner"`
	RewardETH   float64 `json:"miner_reward_eth"`
	Bundles     int     `json:"bundles"`
	Txs         int     `json:"txs"`
}

// options is the validated flag set of one invocation.
type options struct {
	seed     int64
	bpm      uint64
	out      string
	vantages int
	topology string
}

// parseArgs parses and validates the command line; mistakes come back as
// errors so main can exit 2 before any simulation work.
func parseArgs(args []string) (options, error) {
	fs := flag.NewFlagSet("chaingen", flag.ContinueOnError)
	fs.SetOutput(io.Discard) // main reports the returned error once
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: chaingen [flags]")
		fs.SetOutput(os.Stderr)
		fs.PrintDefaults()
		fs.SetOutput(io.Discard)
	}
	var o options
	fs.Int64Var(&o.seed, "seed", 42, "simulation seed")
	fs.Uint64Var(&o.bpm, "bpm", 400, "blocks per simulated month")
	fs.StringVar(&o.out, "out", "dataset", "output directory")
	fs.IntVar(&o.vantages, "vantages", 0, "observation vantages spread around the gossip network (0 = single observer)")
	fs.StringVar(&o.topology, "topology", "", "gossip topology: ring-chords (default), ring, small-world")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.bpm == 0 {
		return o, fmt.Errorf("-bpm must be positive")
	}
	if o.out == "" {
		return o, fmt.Errorf("-out DIR must not be empty")
	}
	if o.vantages < 0 {
		return o, fmt.Errorf("-vantages must be ≥ 0 (got %d)", o.vantages)
	}
	if _, err := p2p.ParseTopology(o.topology); err != nil {
		return o, err
	}
	return o, nil
}

func main() {
	o, err := parseArgs(os.Args[1:])
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, "chaingen:", err)
		os.Exit(2)
	}

	t0 := time.Now()
	fmt.Fprintf(os.Stderr, "chaingen: simulating (seed %d, %d blocks/month)...\n", o.seed, o.bpm)
	study, err := mevscope.Run(mevscope.Options{
		Seed: o.seed, BlocksPerMonth: o.bpm,
		Vantages: o.vantages, Topology: o.topology,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaingen:", err)
		os.Exit(1)
	}

	n, err := export(study, o.out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaingen:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "chaingen: wrote %d MEV records, %d pending observations, %d Flashbots blocks to %s/ in %v\n",
		n.mev, n.pending, n.fbBlocks, o.out, time.Since(t0).Round(time.Millisecond))
}

// exportCounts is how many records each exported collection holds.
type exportCounts struct{ mev, pending, fbBlocks int }

// export writes the study's three collections into dir as
// mev.jsonl, pending_transactions.jsonl and flashbots_blocks.jsonl.
func export(study *mevscope.Study, dir string) (exportCounts, error) {
	var mev []mevDoc
	for _, r := range study.Profits {
		mev = append(mev, mevDoc{
			Kind:         r.Kind.String(),
			Block:        r.Block,
			Month:        r.Month.String(),
			Extractor:    r.Extractor.String(),
			GainETH:      r.GainETH.Ether(),
			CostETH:      r.CostETH.Ether(),
			NetETH:       r.NetETH.Ether(),
			ViaFlashbots: r.ViaFlashbots,
			ViaFlashLoan: r.ViaFlashLoan,
		})
	}
	var pending []pendingDoc
	for vi, v := range study.Sim.Net.Vantages() {
		for _, rec := range v.Records() {
			pending = append(pending, pendingDoc{
				Hash: rec.Hash.String(), FirstSeenBlock: rec.FirstSeenBlock, Hops: rec.Hops,
				Vantage: vi, Node: v.Node(),
			})
		}
	}
	var fbBlocks []fbBlockDoc
	for _, rec := range study.Sim.Relay.Blocks() {
		fbBlocks = append(fbBlocks, fbBlockDoc{
			BlockNumber: rec.BlockNumber,
			Miner:       rec.Miner.String(),
			RewardETH:   types.Amount(rec.MinerReward).Ether(),
			Bundles:     rec.BundleCount(),
			Txs:         len(rec.Txs),
		})
	}
	if err := writeJSONL(dir, "mev", mev); err != nil {
		return exportCounts{}, err
	}
	if err := writeJSONL(dir, "pending_transactions", pending); err != nil {
		return exportCounts{}, err
	}
	if err := writeJSONL(dir, "flashbots_blocks", fbBlocks); err != nil {
		return exportCounts{}, err
	}
	return exportCounts{len(mev), len(pending), len(fbBlocks)}, nil
}

// writeJSONL writes docs to dir/<name>.jsonl, one JSON document per
// line. The file's Close error is returned too: on a write path it can
// be the only report that buffered bytes never reached the disk.
func writeJSONL[T any](dir, name string, docs []T) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".jsonl"))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("save %s: %w", name, cerr)
		}
	}()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, d := range docs {
		if err := enc.Encode(d); err != nil {
			return fmt.Errorf("save %s: %w", name, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("save %s: %w", name, err)
	}
	return nil
}
