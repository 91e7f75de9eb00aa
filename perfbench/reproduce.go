package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"time"

	"mevscope"
	"mevscope/internal/archive"
	"mevscope/internal/core/detect"
	"mevscope/internal/core/measure"
	"mevscope/internal/core/privinfer"
	"mevscope/internal/core/profit"
	"mevscope/internal/dataset"
	"mevscope/internal/parallel"
	"mevscope/internal/sim"
	"mevscope/internal/types"
)

// reproduceBPM is the reproduce workload's scale in blocks per simulated
// month (23 months per world).
const reproduceBPM = 100

// runReproduce is the paper's own run, as `mevscope archive` followed by
// `mevscope analyze -from` performs it: each op simulates the baseline
// world, writes it as a v3 archive, reads it back, analyzes it and
// renders the report. Set-up builds the oracle's reference, the report
// AnalyzeDataset gives over the simulation itself.
func runReproduce(b *bench) error {
	opts := mevscope.Options{Seed: b.seed, BlocksPerMonth: reproduceBPM}
	cfg, err := opts.Config()
	if err != nil {
		return err
	}
	meta := map[string]string{"seed": strconv.FormatInt(b.seed, 10), "scenario": "baseline", "bpm": strconv.Itoa(reproduceBPM)}
	var ref []byte
	if _, err := b.setup(func(string) error {
		s, err := simulate(cfg, nil)
		if err != nil {
			return err
		}
		st, err := mevscope.AnalyzeDataset(dataset.FromSim(s), 0)
		if err != nil {
			return err
		}
		ref = render(st.Report)
		return nil
	}); err != nil {
		return err
	}
	if b.perturb {
		ref = perturbed(ref)
	}

	var tr *tracer
	if b.traced {
		tr = newTracer()
	}
	dir := b.path("archive")
	var (
		blocks    int
		dataBytes int64
		simAllocs uint64
		simBlocks int
	)
	op := func(tr *tracer) (time.Duration, error) {
		start := time.Now()
		allocs := heapAllocs()
		s, err := simulate(cfg, tr)
		if err != nil {
			return 0, err
		}
		if tr != nil {
			simAllocs += heapAllocs() - allocs
			simBlocks += s.Chain.Len()
		}
		id := tr.begin("archive.write")
		man, err := archive.Write(dir, dataset.FromSim(s), meta)
		tr.end(id)
		if err != nil {
			return 0, err
		}
		id = tr.begin("archive.read")
		restored, _, err := archive.Read(dir)
		tr.end(id)
		if err != nil {
			return 0, err
		}
		rep, err := analyze(restored, tr)
		if err != nil {
			return 0, err
		}
		id = tr.begin("measure.render")
		out := render(rep)
		tr.end(id)
		d := time.Since(start)

		b.check(bytes.Equal(out, ref))
		blocks, dataBytes = s.Chain.Len(), man.DataBytes()
		return d, os.RemoveAll(dir)
	}
	var plain, traced []time.Duration
	if err := b.timed(func() (err error) {
		plain, traced, err = b.closedLoop(tr, op)
		return err
	}); err != nil {
		return err
	}

	b.set("latency_p50_ms", ms(quantile(plain, 0.5)))
	b.set("latency_p90_ms", ms(quantile(plain, 0.9)))
	b.set("throughput_per_s", float64(blocks)/quantile(plain, 0.5).Seconds())
	b.set("disk_bytes_per_block", float64(dataBytes)/float64(blocks))
	if tr == nil {
		return nil
	}
	b.set("sim.run_s", quantile(tr.layerSelf("sim"), 0.5).Seconds())
	b.set("sim.allocs_per_block", float64(simAllocs)/float64(simBlocks))
	b.set("archive.write_s", quantile(tr.layerSelf("archive.write"), 0.5).Seconds())
	b.set("archive.read_s", quantile(tr.layerSelf("archive.read"), 0.5).Seconds())
	b.set("archive.data_bytes", float64(dataBytes))
	b.set("detect.scan_s", quantile(tr.layerSelf("detect"), 0.5).Seconds())
	b.set("profit.resolve_s", quantile(tr.layerSelf("profit"), 0.5).Seconds())
	b.set("measure.build_s", quantile(tr.layerSelf("measure.build"), 0.5).Seconds())
	b.set("measure.render_ms", ms(quantile(tr.layerSelf("measure.render"), 0.5)))
	b.traceSummary(tr, plain, traced)
	return nil
}

// simulate builds and runs one world under a "sim" span.
func simulate(cfg sim.Config, tr *tracer) (*sim.Sim, error) {
	id := tr.begin("sim")
	defer tr.end(id)
	s, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	return s, s.Run()
}

// analyze runs the measurement pipeline over a dataset: untraced it is
// one mevscope.AnalyzeDataset call; traced it is the same calls taken
// apart, each under its own span.
func analyze(ds *dataset.Dataset, tr *tracer) (*measure.Report, error) {
	if tr == nil {
		st, err := mevscope.AnalyzeDataset(ds, 0)
		if err != nil {
			return nil, err
		}
		return st.Report, nil
	}
	return analyzeLayers(ds, tr)
}

// analyzeLayers makes the calls mevscope.AnalyzeDataset makes, in the
// same order with the same arguments, each under its own span, so its
// report is byte-identical (the reproduce oracle checks that on every
// traced op).
func analyzeLayers(ds *dataset.Dataset, tr *tracer) (*measure.Report, error) {
	c := ds.Chain
	if c == nil || c.Head() == nil {
		return nil, fmt.Errorf("dataset has no blocks")
	}
	workers := parallel.Workers(0)
	id := tr.begin("detect")
	res := detect.ScanParallelSpan(c, ds.WETH, c.Timeline.StartBlock, c.Head().Header.Number, workers, nil)
	tr.end(id)
	id = tr.begin("profit")
	profits := profit.New(c, ds.Prices, ds.WETH, ds.FBSet).ResolveAllParallelSpan(res, workers, nil)
	tr.end(id)

	id = tr.begin("measure.build")
	defer tr.end(id)
	in := measure.Inputs{
		Chain:    c,
		FBBlocks: ds.FBBlocks,
		FBSet:    ds.FBSet,
		Detect:   res,
		Profits:  profits,
		WETH:     ds.WETH,
		Workers:  workers,
		Vantages: ds.VantageList(),
		View:     ds.View,
	}
	view, err := ds.ResolveView()
	if err != nil {
		return nil, err
	}
	var inf *privinfer.Inferrer
	if view != nil {
		in.Observer = view
		winStart := c.Timeline.FirstBlockOfMonth(types.PrivateWindowStartMonth)
		inf = privinfer.New(c, view, ds.FBSet, winStart, c.Head().Header.Number)
		inf.Workers = workers
	}
	return measure.Build(in, inf), nil
}

// render is the report's text rendering, the bytes `mevscope analyze`
// prints.
func render(rep *measure.Report) []byte {
	var buf bytes.Buffer
	mevscope.WriteReportTo(&buf, rep)
	return buf.Bytes()
}

// perturbed is a reference no correct output can match: the oracle
// self-test swaps it in and expects every check to fail.
func perturbed(ref []byte) []byte { return append(append([]byte(nil), ref...), '!') }
