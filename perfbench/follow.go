package main

import (
	"bytes"
	"os"
	"strconv"
	"time"

	"mevscope"
	"mevscope/internal/archive"
	"mevscope/internal/chain"
	"mevscope/internal/core/measure"
	"mevscope/internal/dataset"
	"mevscope/internal/flashbots"
	"mevscope/internal/stream"
	"mevscope/internal/types"
)

// followBPM is the live-follow workload's scale in blocks per simulated
// month.
const followBPM = 100

// runLiveFollow tails a growing chain the way `mevscope archive -live`
// does. Set-up simulates the baseline world, archives it and restores
// it. Each op feeds every restored block into a stream.Follower over a
// fresh chain; at each month end the follower rotates the month to disk
// (MonthSegment → StreamWriter.WriteSegment) and the benchmark snapshots
// Report(). The snapshot latency runs from the month's last block being
// fed to its snapshot.
func runLiveFollow(b *bench) error {
	opts := mevscope.Options{Seed: b.seed, BlocksPerMonth: followBPM}
	cfg, err := opts.Config()
	if err != nil {
		return err
	}
	meta := map[string]string{"seed": strconv.FormatInt(b.seed, 10), "scenario": "baseline", "bpm": strconv.Itoa(followBPM)}
	var (
		ds    *dataset.Dataset
		batch *archive.Manifest
	)
	if _, err := b.setup(func(dir string) error {
		s, err := simulate(cfg, nil)
		if err != nil {
			return err
		}
		if batch, err = archive.Write(dir, dataset.FromSim(s), meta); err != nil {
			return err
		}
		ds, _, err = archive.Read(dir)
		return err
	}); err != nil {
		return err
	}
	// The oracle: the final snapshot must equal the batch report, and the
	// streamed archive the batch one file for file.
	st, err := mevscope.AnalyzeDataset(ds, 0)
	if err != nil {
		return err
	}
	ref := render(st.Report)
	if b.perturb {
		ref = perturbed(ref)
	}

	// The blocks to feed, in order, each with its Flashbots record, and
	// the index of each month's last block.
	tl := ds.Chain.Timeline
	head := ds.Chain.Head().Header.Number
	fbByNum := make(map[uint64]flashbots.BlockRecord, len(ds.FBBlocks))
	for _, rec := range ds.FBBlocks {
		fbByNum[rec.BlockNumber] = rec
	}
	var (
		toFeed    []*types.Block
		fbRecs    []*flashbots.BlockRecord
		monthEnds []int
	)
	for n := tl.StartBlock; n <= head; n++ {
		blk, err := ds.Chain.ByNumber(n)
		if err != nil {
			return err
		}
		var fbRec *flashbots.BlockRecord
		if rec, ok := fbByNum[n]; ok {
			fbRec = &rec
		}
		toFeed, fbRecs = append(toFeed, blk), append(fbRecs, fbRec)
		if n == head || tl.MonthOfBlock(n+1) != tl.MonthOfBlock(n) {
			monthEnds = append(monthEnds, len(toFeed)-1)
		}
	}
	var tr *tracer
	if b.traced {
		tr = newTracer()
	}
	dir := b.path("live")
	var (
		plainSnaps []time.Duration
		dataBytes  int64
	)
	op := func(tr *tracer) (time.Duration, error) {
		start := time.Now()
		c := chain.New(tl)
		f := stream.New(c, ds.WETH, ds.Prices, ds.Observer, nil, 0)
		if len(ds.Vantages) > 0 {
			f.SetVantages(ds.Vantages)
		}
		sw, err := archive.NewStreamWriter(dir, tl, ds.WETH, archive.DefaultFormat, meta)
		if err != nil {
			return 0, err
		}
		var rotErr error
		f.OnMonthEnd = func(m types.Month, f *stream.Follower) {
			id := tr.begin("archive.rotate")
			if rotErr == nil {
				rotErr = sw.WriteSegment(f.MonthSegment(m))
			}
			tr.end(id)
		}
		// One "stream.feed" span per month keeps the tracer's own cost
		// (a goroutine-id lookup per span) off the per-block path.
		var snap *measure.Report
		i := 0
		for _, last := range monthEnds {
			var fed time.Time
			id := tr.begin("stream.feed")
			for ; i <= last && err == nil; i++ {
				if i == last {
					fed = time.Now()
				}
				if err = c.Append(toFeed[i]); err == nil {
					err = f.Feed(toFeed[i], fbRecs[i])
				}
			}
			tr.end(id)
			if err != nil {
				return 0, err
			}
			if rotErr != nil {
				return 0, rotErr
			}
			id = tr.begin("stream.snapshot")
			snap = f.Report()
			tr.end(id)
			if tr == nil {
				plainSnaps = append(plainSnaps, time.Since(fed))
			}
		}
		id := tr.begin("archive.write")
		man, err := sw.Finalize(f.Dataset())
		tr.end(id)
		if err != nil {
			return 0, err
		}
		d := time.Since(start)

		b.check(bytes.Equal(render(snap), ref) && sameFiles(man, batch))
		dataBytes = man.DataBytes()
		return d, os.RemoveAll(dir)
	}
	var plain, traced []time.Duration
	if err := b.timed(func() (err error) {
		plain, traced, err = b.closedLoop(tr, op)
		return err
	}); err != nil {
		return err
	}

	blocks := float64(ds.Chain.Len())
	b.set("latency_p50_ms", ms(quantile(plainSnaps, 0.5)))
	b.set("latency_p90_ms", ms(quantile(plainSnaps, 0.9)))
	b.set("throughput_per_s", blocks/quantile(plain, 0.5).Seconds())
	b.set("disk_bytes_per_block", float64(dataBytes)/blocks)
	if tr == nil {
		return nil
	}
	b.set("stream.feed_us_per_block", float64(sum(tr.layerSelf("stream.feed")).Microseconds())/(blocks*float64(len(traced))))
	b.set("stream.snapshot_ms_p50", ms(quantile(tr.layerSelf("stream.snapshot"), 0.5)))
	b.set("archive.rotate_ms_p50", ms(quantile(tr.layerSelf("archive.rotate"), 0.5)))
	b.set("archive.write_s", quantile(tr.layerSelf("archive.write"), 0.5).Seconds())
	b.set("archive.data_bytes", float64(dataBytes))
	b.traceSummary(tr, plain, traced)
	return nil
}

// sameFiles reports whether two archives hold the same data files: per
// segment the same files with the same checksums and document counts,
// and the same price history.
func sameFiles(a, b *archive.Manifest) bool {
	if len(a.Segments) != len(b.Segments) || a.Prices.SHA256 != b.Prices.SHA256 {
		return false
	}
	for i := range a.Segments {
		fa, fb := segmentFiles(a.Segments[i]), segmentFiles(b.Segments[i])
		if len(fa) != len(fb) {
			return false
		}
		for j := range fa {
			if fa[j].Name != fb[j].Name || fa[j].SHA256 != fb[j].SHA256 || fa[j].Count != fb[j].Count {
				return false
			}
		}
	}
	return true
}

// segmentFiles lists one segment's data files: the column chunks of a v3
// segment, the legacy per-kind files otherwise.
func segmentFiles(si archive.SegmentInfo) []archive.FileInfo {
	if len(si.Columns) > 0 {
		files := make([]archive.FileInfo, 0, len(si.Columns))
		for _, ci := range si.Columns {
			files = append(files, ci.File)
		}
		return files
	}
	return append([]archive.FileInfo{si.Blocks, si.Flashbots, si.Observed}, si.ObservedV...)
}
