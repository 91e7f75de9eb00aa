package archive_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"mevscope"
	"mevscope/internal/archive"
	"mevscope/internal/dataset"
	"mevscope/internal/sim"
)

// pinnedChunks is the SHA-256 of the chunk list (name, bytes, SHA-256 of
// every segment chunk and of prices.col) that the seed-3 bpm-40
// 3-vantage world archives into at chunkLevel 5. A change of deflate
// level, codec or column encoder changes it; update it in the same
// change, as TestHeadHashesPinned is updated for the chain.
const pinnedChunks = "208cd108e03b37e904c6443d1f85536b53aea65be2b4b9dabbc147277a2edb82"

// chunkList lists an archive's data files, one "name bytes sha256" line
// each, in manifest order.
func chunkList(man *archive.Manifest) []string {
	var out []string
	for _, si := range man.Segments {
		for _, ci := range si.Columns {
			out = append(out, fmt.Sprintf("%s %d %s", ci.File.Name, ci.File.Bytes, ci.File.SHA256))
		}
	}
	return append(out, fmt.Sprintf("%s %d %s", man.Prices.Name, man.Prices.Bytes, man.Prices.SHA256))
}

// TestArchiveChunksPinned: a write runs every chunk encoder of every
// month on one worker pool, so which worker encodes a chunk, and when,
// depends on scheduling; the bytes must not. The seed-3 bpm-40
// 3-vantage world is written by archive.Write on one P and on every
// CPU, and month by month through StreamWriter.WriteSegment plus
// Finalize. All three must list the same chunks with the same sizes and
// checksums, and that list is pinned.
func TestArchiveChunksPinned(t *testing.T) {
	cfg, err := mevscope.Options{Seed: 3, BlocksPerMonth: 40, Vantages: 3}.Config()
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	ds := dataset.FromSim(s)
	if len(ds.Vantages) != 3 {
		t.Fatalf("world has %d vantages, want 3", len(ds.Vantages))
	}
	writeAt := func(procs int) func(dir string) (*archive.Manifest, error) {
		return func(dir string) (*archive.Manifest, error) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			return archive.Write(dir, ds, nil)
		}
	}
	ways := []struct {
		name  string
		write func(dir string) (*archive.Manifest, error)
	}{
		{"Write at GOMAXPROCS 1", writeAt(1)},
		{fmt.Sprintf("Write at GOMAXPROCS %d", runtime.NumCPU()), writeAt(runtime.NumCPU())},
		{"WriteSegment per month plus Finalize", func(dir string) (*archive.Manifest, error) {
			sw, err := archive.NewStreamWriter(dir, ds.Chain.Timeline, ds.WETH, archive.DefaultFormat, nil)
			if err != nil {
				return nil, err
			}
			for _, seg := range dataset.Partition(ds) {
				if err := sw.WriteSegment(seg); err != nil {
					return nil, err
				}
			}
			return sw.Finalize(ds)
		}},
	}
	var want []string
	for i, way := range ways {
		man, err := way.write(t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", way.name, err)
		}
		got := chunkList(man)
		if i == 0 {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d chunks, %s wrote %d", way.name, len(got), ways[0].name, len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Errorf("%s: chunk %d is %q, %s wrote %q", way.name, j, got[j], ways[0].name, want[j])
			}
		}
	}
	h := sha256.New()
	for _, line := range want {
		fmt.Fprintln(h, line)
	}
	if sum := hex.EncodeToString(h.Sum(nil)); sum != pinnedChunks {
		t.Errorf("the %d chunks hash to %s, pinned %s", len(want), sum, pinnedChunks)
	}
}
