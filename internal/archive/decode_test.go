package archive

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"mevscope/internal/dataset"
	"mevscope/internal/p2p"
	"mevscope/internal/sim"
	"mevscope/internal/types"
)

// rawLog is a log no event shape round-trips, so it is stored as the
// raw-fallback row, whose data readLog copies out of the chunk body.
var rawLog = types.Log{
	Address: types.DeriveAddress("custom", 1),
	Topics:  []types.Hash{types.EventSignature("Custom(bytes)"), types.HashData([]byte("topic"))},
	Data:    []byte("raw log data the decoder must copy out of the pooled body"),
}

// rawLogArchive archives a short simulated world after adding rawLog to
// the first successful receipt of its first month, and returns the
// archive's directory, its manifest and the month holding the raw log.
func rawLogArchive(tb testing.TB) (string, *Manifest, SegmentInfo) {
	tb.Helper()
	cfg := sim.DefaultConfig(5)
	cfg.BlocksPerMonth = 20
	cfg.Months = 6
	s, err := sim.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.Run(); err != nil {
		tb.Fatal(err)
	}
	ds := dataset.FromSim(s)
	added := false
	ds.Chain.Range(ds.Chain.Timeline.StartBlock, ds.Chain.Head().Header.Number, func(b *types.Block) bool {
		for _, r := range b.Receipts {
			if r.Status == types.StatusSuccess {
				r.Logs = append(r.Logs, rawLog)
				added = true
				return false
			}
		}
		return true
	})
	if !added {
		tb.Fatal("world has no successful receipt to carry the raw log")
	}
	dir := tb.TempDir()
	man, err := Write(dir, ds, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return dir, man, man.Segments[0]
}

// windowArchive archives a short two-vantage world over months 17–19,
// so its chunks hold post-London headers, Flashbots records and both
// vantages' captures from the observation window, and returns the
// archive's directory and manifest. A smaller trader population keeps
// every chunk's dictionaries under the fuzzed 256 entries.
func windowArchive(tb testing.TB) (string, *Manifest) {
	tb.Helper()
	cfg := sim.DefaultConfig(11)
	cfg.BlocksPerMonth = 20
	cfg.NumTraders = 60
	cfg.StartMonth, cfg.Months = 17, 3
	cfg.Net.Vantages = p2p.SpreadVantages(cfg.Net.Nodes, 2, cfg.Net.ObserverMissRate)
	s, err := sim.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.Run(); err != nil {
		tb.Fatal(err)
	}
	dir := tb.TempDir()
	man, err := Write(dir, dataset.FromSim(s), nil)
	if err != nil {
		tb.Fatal(err)
	}
	return dir, man
}

// TestDecodedMonthOutlivesPooledBodies: chunk bodies go back to a pool
// once decoded, so a month decoded before other decodes reuse those
// buffers must keep its values and still equal a fresh decode of
// itself. A decoded value that aliased its body — the raw log's data is
// the likeliest — would be overwritten by the later decodes.
func TestDecodedMonthOutlivesPooledBodies(t *testing.T) {
	dir, man, si := rawLogArchive(t)
	decodeOthers := func() {
		for _, other := range man.Segments[1:] {
			if _, err := readSegment(dir, other, nil); err != nil {
				t.Error(err)
				return
			}
		}
	}
	// Warm the pool first, and pin its reuse: a buffer that grows, that
	// a collection drops or that stays in another P's slot abandons its
	// array, and a value aliasing that array would never be overwritten.
	// One P and no collector make the sequential decodes below take back
	// the very buffers the first decode released.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	procs := runtime.GOMAXPROCS(1)
	decodeOthers()
	first, err := readSegment(dir, si, nil)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, b := range first.Blocks {
		for _, r := range b.Receipts {
			for _, lg := range r.Logs {
				found = found || reflect.DeepEqual(lg, rawLog)
			}
		}
	}
	if !found {
		t.Fatal("decoded month lacks the raw-fallback log")
	}
	// A copy that shares no memory with the decode: the fresh decode
	// below may refill an aliased buffer with the very same bytes.
	snapshot, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}
	decodeOthers()
	runtime.GOMAXPROCS(procs)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				decodeOthers()
			}
		}()
	}
	wg.Wait()
	if after, err := json.Marshal(first); err != nil || !bytes.Equal(after, snapshot) {
		t.Fatalf("a decoded month changed while later decodes reused the pooled bodies (%v)", err)
	}
	fresh, err := readSegment(dir, si, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, fresh) {
		t.Error("a month decoded before other decodes reused the pooled bodies no longer equals a fresh decode")
	}
}

// TestDecodeLogsColRefusesCountSum: per-receipt log counts that each fit
// the body but together exceed the bytes left are refused before the
// log slab is sized by their sum.
func TestDecodeLogsColRefusesCountSum(t *testing.T) {
	w := newColWriter()
	for i := 0; i < 4; i++ {
		w.uvarint(3) // 12 logs claimed, 4 body bytes left after the counts
	}
	w.raw([]byte{logShapeRaw, 0, 0, 0})
	w.addr(types.Address{})
	root := t.TempDir()
	fi, err := writeChunk(root, root, ColLogs, 4, w)
	if err != nil {
		t.Fatal(err)
	}
	_, err = decodeLogsCol(root, ColumnInfo{Name: ColLogs, File: fi})
	if err == nil || !strings.Contains(err.Error(), "log counts sum to 12") {
		t.Fatalf("decode error = %v, want the summed-count refusal", err)
	}
}

// frameChunk persists body as one chunk of column col through
// writeChunk — a valid header, gzip stream and checksum — with the given
// row count and dictionaries of nAddrs addresses and nHashes hashes, so
// a fuzzed body reaches the row decoder.
func frameChunk(t *testing.T, root, col string, nAddrs, nHashes uint8, rows uint16, body []byte) ColumnInfo {
	w := newColWriter()
	for i := 0; i < int(nAddrs); i++ {
		w.addrList = append(w.addrList, types.DeriveAddress("fuzz", uint64(i)))
	}
	for i := 0; i < int(nHashes); i++ {
		w.hashList = append(w.hashList, types.HashData([]byte{byte(i), byte(i >> 8)}))
	}
	w.body = body
	fi, err := writeChunk(root, root, col, int(rows), w)
	if err != nil {
		t.Fatal(err)
	}
	return ColumnInfo{Name: col, File: fi}
}

// addChunkSeeds seeds f with every month's chunk of column col from
// rawLogArchive, then from windowArchive, whose months carry the
// Flashbots records and captures rawLogArchive's predate: its
// dictionary sizes, row count and body. The fuzzed dictionaries stay
// under 256 entries, as these months' do, so each input frames and
// inflates quickly.
func addChunkSeeds(f *testing.F, col string) {
	dir, man, _ := rawLogArchive(f)
	wdir, wman := windowArchive(f)
	for _, a := range []struct {
		dir string
		man *Manifest
	}{{dir, man}, {wdir, wman}} {
		for _, si := range a.man.Segments {
			ci, err := findColumn(si, col)
			if err != nil {
				f.Fatal(err)
			}
			r, err := readChunk(a.dir, ci.File, col)
			if err != nil {
				f.Fatal(err)
			}
			if len(r.addrs) > 255 || len(r.hashes) > 255 {
				f.Fatalf("%s: %d addresses and %d hashes outgrow the fuzzed dictionaries", ci.File.Name, len(r.addrs), len(r.hashes))
			}
			f.Add(uint8(len(r.addrs)), uint8(len(r.hashes)), uint16(r.rows), append([]byte(nil), r.body...))
			r.release()
		}
	}
}

// FuzzDecodeLogsCol: any logs-chunk body decodes to an error or to one
// log list per row, never a panic or an allocation its bytes cannot
// back.
func FuzzDecodeLogsCol(f *testing.F) {
	addChunkSeeds(f, ColLogs)
	root := f.TempDir()
	f.Fuzz(func(t *testing.T, nAddrs, nHashes uint8, rows uint16, body []byte) {
		ci := frameChunk(t, root, ColLogs, nAddrs, nHashes, rows, body)
		d, err := decodeLogsCol(root, ci)
		if err == nil && len(d) != int(rows) {
			t.Fatalf("decoded %d receipts' logs from %d rows", len(d), rows)
		}
	})
}

// FuzzDecodeTxsCol: any transactions-chunk body decodes to an error or
// to one transaction per row, never a panic.
func FuzzDecodeTxsCol(f *testing.F) {
	addChunkSeeds(f, ColTxs)
	root := f.TempDir()
	f.Fuzz(func(t *testing.T, nAddrs, nHashes uint8, rows uint16, body []byte) {
		ci := frameChunk(t, root, ColTxs, nAddrs, nHashes, rows, body)
		d, err := decodeTxsCol(root, ci)
		if err == nil && len(d) != int(rows) {
			t.Fatalf("decoded %d transactions from %d rows", len(d), rows)
		}
	})
}

// FuzzDecodeHeadersCol: any headers-chunk body decodes to an error or to
// one header per row whose tx counts sum to totalTxs, never a panic.
func FuzzDecodeHeadersCol(f *testing.F) {
	addChunkSeeds(f, ColHeaders)
	root := f.TempDir()
	f.Fuzz(func(t *testing.T, nAddrs, nHashes uint8, rows uint16, body []byte) {
		ci := frameChunk(t, root, ColHeaders, nAddrs, nHashes, rows, body)
		d, err := decodeHeadersCol(root, ci)
		if err != nil {
			return
		}
		if len(d.numbers) != int(rows) || len(d.txCounts) != int(rows) {
			t.Fatalf("decoded %d headers and %d tx counts from %d rows", len(d.numbers), len(d.txCounts), rows)
		}
		sum := 0
		for _, c := range d.txCounts {
			sum += c
		}
		if sum != d.totalTxs {
			t.Fatalf("tx counts sum to %d, totalTxs says %d", sum, d.totalTxs)
		}
	})
}

// FuzzDecodeReceiptsCol: any receipts-chunk body decodes to an error or
// to one receipt per row, never a panic.
func FuzzDecodeReceiptsCol(f *testing.F) {
	addChunkSeeds(f, ColReceipts)
	root := f.TempDir()
	f.Fuzz(func(t *testing.T, nAddrs, nHashes uint8, rows uint16, body []byte) {
		ci := frameChunk(t, root, ColReceipts, nAddrs, nHashes, rows, body)
		d, err := decodeReceiptsCol(root, ci)
		if err == nil && len(d) != int(rows) {
			t.Fatalf("decoded %d receipts from %d rows", len(d), rows)
		}
	})
}

// FuzzDecodeFlashbotsCol: any Flashbots-chunk body decodes to an error
// or to one block record per row, never a panic or a bundle list its
// bytes cannot back.
func FuzzDecodeFlashbotsCol(f *testing.F) {
	addChunkSeeds(f, ColFlashbots)
	root := f.TempDir()
	f.Fuzz(func(t *testing.T, nAddrs, nHashes uint8, rows uint16, body []byte) {
		ci := frameChunk(t, root, ColFlashbots, nAddrs, nHashes, rows, body)
		d, err := decodeFlashbotsCol(root, ci)
		if err == nil && len(d) != int(rows) {
			t.Fatalf("decoded %d Flashbots records from %d rows", len(d), rows)
		}
	})
}

// FuzzDecodeObservedCol: any observation-chunk body decodes to an error
// or to one capture per row, never a panic.
func FuzzDecodeObservedCol(f *testing.F) {
	addChunkSeeds(f, ColObserved)
	root := f.TempDir()
	f.Fuzz(func(t *testing.T, nAddrs, nHashes uint8, rows uint16, body []byte) {
		ci := frameChunk(t, root, ColObserved, nAddrs, nHashes, rows, body)
		d, err := decodeObservedCol(root, ci)
		if err == nil && len(d) != int(rows) {
			t.Fatalf("decoded %d captures from %d rows", len(d), rows)
		}
	})
}
