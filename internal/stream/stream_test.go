package stream_test

import (
	"bytes"
	"testing"

	"mevscope"
	"mevscope/internal/archive"
	"mevscope/internal/chain"
	"mevscope/internal/core/measure"
	"mevscope/internal/dataset"
	"mevscope/internal/sim"
	"mevscope/internal/stream"
	"mevscope/internal/types"
)

// render formats a report with the shared renderer, so streaming
// snapshots compare byte for byte with batch output.
func render(r *measure.Report) []byte {
	var buf bytes.Buffer
	mevscope.WriteReportTo(&buf, r)
	return buf.Bytes()
}

// streamWorld simulates cfg to completion, feeding every block through a
// follower as it is produced.
func streamWorld(t *testing.T, cfg sim.Config, workers int, onMonth func(types.Month, *stream.Follower)) (*sim.Sim, *stream.Follower) {
	t.Helper()
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := stream.ForSim(s, workers)
	f.OnMonthEnd = onMonth
	end := s.EndBlock()
	for s.Chain.NextNumber() <= end {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	return s, f
}

// TestFollowerMatchesBatchFinal is the tentpole guarantee: streaming a
// full world block by block yields a final report byte-identical to the
// batch pipeline over the finished simulation.
func TestFollowerMatchesBatchFinal(t *testing.T) {
	cfg := sim.DefaultConfig(11)
	cfg.BlocksPerMonth = 40
	s, f := streamWorld(t, cfg, 3, nil)

	if got, want := f.Blocks(), uint64(s.Chain.Len()); got != want {
		t.Fatalf("follower consumed %d blocks, chain has %d", got, want)
	}
	batch, err := mevscope.AnalyzeWith(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(render(f.Report()), render(batch.Report)) {
		t.Error("streamed report differs from batch report")
	}
	if f.Inferrer() == nil {
		t.Error("observer window opened but follower has no inferrer")
	}
}

// TestFollowerMonthBoundarySnapshots checks the live report at month
// boundaries: the follower's snapshot after month m must equal the batch
// pipeline run over the same world truncated at m (a fresh sim with the
// same seed and Months = m+1 — block production is prefix-deterministic).
func TestFollowerMonthBoundarySnapshots(t *testing.T) {
	check := map[types.Month][]byte{}
	want := map[types.Month]bool{5: true, 15: true, 18: true, 22: true}
	cfg := sim.DefaultConfig(7)
	cfg.BlocksPerMonth = 30
	streamWorld(t, cfg, 2, func(m types.Month, f *stream.Follower) {
		if want[m] {
			check[m] = render(f.Report())
		}
	})
	if len(check) != len(want) {
		t.Fatalf("captured %d snapshots, want %d", len(check), len(want))
	}
	for m, snap := range check {
		tcfg := sim.DefaultConfig(7)
		tcfg.BlocksPerMonth = 30
		tcfg.Months = int(m) + 1
		s, err := sim.New(tcfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		batch, err := mevscope.AnalyzeWith(s, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snap, render(batch.Report)) {
			t.Errorf("month %s: streamed snapshot differs from batch over the truncated world", m)
		}
	}
}

// TestFollowerMidMonthSnapshots checks the live report away from month
// ends: at each height — mid first month, a month boundary, just after
// the observation window opens, inside the private window, mid month 20
// and the end of the study — the follower's incremental Report must
// render byte-identically to the batch pipeline over the fed world
// (AnalyzeDataset over Dataset()), for a single vantage, four vantages
// and a flaky one.
func TestFollowerMidMonthSnapshots(t *testing.T) {
	for _, scen := range []string{"baseline", "multi-vantage-union", "degraded-observer"} {
		t.Run(scen, func(t *testing.T) {
			cfg, err := mevscope.Options{Seed: 7, BlocksPerMonth: 50, Scenario: scen}.Config()
			if err != nil {
				t.Fatal(err)
			}
			s, err := sim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			f := stream.ForSim(s, 2)
			tl := f.Timeline()
			end := s.EndBlock()
			checkAt := map[uint64]bool{
				tl.StartBlock + 25:                                       true, // mid first month
				tl.FirstBlockOfMonth(6) - 1:                              true, // a month boundary
				tl.FirstBlockOfMonth(types.ObservationStartMonth) + 7:    true, // just after the window opens
				tl.FirstBlockOfMonth(types.PrivateWindowStartMonth) + 13: true, // inside the private window
				tl.FirstBlockOfMonth(20) + 25:                            true, // mid month 20
				end:                                                      true, // study complete
			}
			checked := 0
			for s.Chain.NextNumber() <= end {
				if err := s.Step(); err != nil {
					t.Fatal(err)
				}
				if _, err := f.Sync(); err != nil {
					t.Fatal(err)
				}
				head := s.Chain.Head().Header.Number
				if !checkAt[head] {
					continue
				}
				checked++
				batch, err := mevscope.AnalyzeDataset(f.Dataset(), 2)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(render(f.Report()), render(batch.Report)) {
					t.Errorf("height %d (month %s): follower report differs from the batch pipeline over the fed world",
						head, tl.MonthOfBlock(head).Label())
				}
			}
			if checked != len(checkAt) {
				t.Fatalf("checked %d heights, want %d", checked, len(checkAt))
			}
		})
	}
}

// emptyBlock seals a transaction-free block at the chain's next height;
// miner distinguishes blocks that would otherwise hash alike.
func emptyBlock(c *chain.Chain, miner types.Address) *types.Block {
	n := c.NextNumber()
	b := &types.Block{Header: types.Header{
		Number:   n,
		Time:     c.Timeline.TimeOfBlock(n),
		Miner:    miner,
		BaseFee:  c.NextBaseFee(),
		GasLimit: c.GasLimit,
	}}
	b.Seal()
	return b
}

// TestFollowerFeedValidation: blocks must arrive in order and on the
// follower's chain — checked by height and hash, so an empty block the
// chain does not hold is refused too.
func TestFollowerFeedValidation(t *testing.T) {
	cfg := sim.DefaultConfig(3)
	cfg.BlocksPerMonth = 20
	cfg.Months = 2
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	f := stream.ForSim(s, 1)
	head := s.Chain.Head()
	if err := f.Feed(head, nil); err == nil {
		t.Error("feeding the head out of order should error")
	}
	n, err := f.Sync()
	if err != nil {
		t.Fatal(err)
	}
	if n != s.Chain.Len() {
		t.Fatalf("sync consumed %d blocks, want %d", n, s.Chain.Len())
	}
	// A second sync is a no-op.
	if n, err := f.Sync(); err != nil || n != 0 {
		t.Fatalf("idle sync = (%d, %v), want (0, nil)", n, err)
	}

	// An empty block has no transaction to look up on chain: a sealed
	// zero-tx block at the next height is refused while the chain holds
	// no block there, and while it holds a different one.
	c := chain.New(types.DefaultTimeline(20))
	stray := emptyBlock(c, types.Address{1})
	ef := stream.New(c, types.Address{}, nil, nil, nil, 1)
	if err := ef.Feed(stray, nil); err == nil || ef.Blocks() != 0 {
		t.Errorf("empty chain: feeding an unappended empty block = %v with %d blocks consumed; want an error and 0", err, ef.Blocks())
	}
	held := emptyBlock(c, types.Address{2})
	if err := c.Append(held); err != nil {
		t.Fatal(err)
	}
	if err := ef.Feed(stray, nil); err == nil {
		t.Error("an empty block with another hash than the chain's at that height was accepted")
	}
	if err := ef.Feed(held, nil); err != nil || ef.Blocks() != 1 {
		t.Errorf("feeding the chain's own empty block = %v with %d blocks consumed; want nil and 1", err, ef.Blocks())
	}
}

// TestStreamedArchiveMatchesBatch: rotating every month to disk through
// OnMonthEnd (the `mevscope archive -live` path) must produce an archive
// file-for-file identical to batch-archiving the finished dataset — same
// checksums, same manifest shape — and restoring it must reproduce the
// batch report byte for byte: the column encoders must be deterministic
// segment at a time. The "v3" subtest names the column-chunk codec
// (byte 0x03).
func TestStreamedArchiveMatchesBatch(t *testing.T) {
	t.Run("v3", streamedMatchesBatch)
}

// segmentFiles flattens one segment's column-chunk records.
func segmentFiles(si archive.SegmentInfo) []archive.FileInfo {
	files := make([]archive.FileInfo, 0, len(si.Columns))
	for _, ci := range si.Columns {
		files = append(files, ci.File)
	}
	return files
}

func streamedMatchesBatch(t *testing.T) {
	cfg := sim.DefaultConfig(23)
	cfg.BlocksPerMonth = 25
	liveDir, batchDir := t.TempDir(), t.TempDir()

	var sw *archive.StreamWriter
	var rotErr error
	var rotations int
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sw, err = archive.NewStreamWriter(liveDir, s.Chain.Timeline, s.World.WETH, archive.DefaultFormat, map[string]string{"seed": "23"})
	if err != nil {
		t.Fatal(err)
	}
	f := stream.ForSim(s, 2)
	f.OnMonthEnd = func(m types.Month, f *stream.Follower) {
		if rotErr == nil {
			rotErr = sw.WriteSegment(f.MonthSegment(m))
			rotations++
		}
	}
	end := s.EndBlock()
	for s.Chain.NextNumber() <= end {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if rotErr != nil {
		t.Fatal(rotErr)
	}
	if rotations != types.StudyMonths {
		t.Fatalf("rotated %d months, want %d", rotations, types.StudyMonths)
	}
	liveMan, err := sw.Finalize(f.Dataset())
	if err != nil {
		t.Fatal(err)
	}

	batchMan, err := archive.Write(batchDir, dataset.FromSim(s), map[string]string{"seed": "23"})
	if err != nil {
		t.Fatal(err)
	}
	if len(liveMan.Segments) != len(batchMan.Segments) {
		t.Fatalf("streamed archive has %d segments, batch has %d", len(liveMan.Segments), len(batchMan.Segments))
	}
	for i, live := range liveMan.Segments {
		liveFiles, batchFiles := segmentFiles(live), segmentFiles(batchMan.Segments[i])
		if len(liveFiles) != len(batchFiles) {
			t.Fatalf("segment %s: streamed %d data files, batch %d", live.Label, len(liveFiles), len(batchFiles))
		}
		for j, lf := range liveFiles {
			if bf := batchFiles[j]; lf.SHA256 != bf.SHA256 || lf.Count != bf.Count {
				t.Errorf("segment %s: streamed %s differs from batch (%d vs %d docs)",
					live.Label, lf.Name, lf.Count, bf.Count)
			}
		}
	}
	if liveMan.Prices.SHA256 != batchMan.Prices.SHA256 {
		t.Error("streamed prices file differs from batch")
	}

	restored, _, err := archive.Read(liveDir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := mevscope.AnalyzeDataset(restored, 2)
	if err != nil {
		t.Fatal(err)
	}
	batchStudy, err := mevscope.AnalyzeWith(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(render(st.Report), render(batchStudy.Report)) {
		t.Error("report over the streamed archive differs from the batch pipeline's")
	}
}

// TestStreamWriterValidation: only the current format is written,
// months must ascend, a finalized writer is closed, and Finalize refuses
// a dataset whose months were only partly rotated under a stale
// manifest view.
func TestStreamWriterValidation(t *testing.T) {
	cfg := sim.DefaultConfig(5)
	cfg.BlocksPerMonth = 20
	cfg.Months = 3
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	ds := dataset.FromSim(s)
	segs := dataset.Partition(ds)
	if len(segs) != 3 {
		t.Fatalf("partitioned %d months, want 3", len(segs))
	}
	if _, err := archive.NewStreamWriter(t.TempDir(), s.Chain.Timeline, s.World.WETH, archive.DefaultFormat-1, nil); err == nil {
		t.Error("stream writer accepted a retired format")
	}
	sw, err := archive.NewStreamWriter(t.TempDir(), s.Chain.Timeline, s.World.WETH, archive.DefaultFormat, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteSegment(segs[1]); err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteSegment(segs[0]); err == nil {
		t.Error("out-of-order month accepted")
	}
	if err := sw.WriteSegment(segs[1]); err == nil {
		t.Error("repeated month accepted")
	}
	if _, err := sw.Finalize(ds); err == nil {
		t.Error("Finalize accepted a dataset with unrotated months below the last written segment")
	}
}
