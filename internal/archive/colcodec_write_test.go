package archive

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mevscope/internal/types"
)

// freshChunkBytes encodes a chunk file the way writeChunk's format says,
// with a gzip writer built for this one chunk: the plain header, then a
// stream deflated at level of the dictionaries, the row count and the
// body.
func freshChunkBytes(t *testing.T, col string, rows int, w *colWriter, level int) []byte {
	t.Helper()
	var stream []byte
	stream = binary.AppendUvarint(stream, uint64(len(w.addrList)))
	for _, a := range w.addrList {
		stream = append(stream, a[:]...)
	}
	stream = binary.AppendUvarint(stream, uint64(len(w.hashList)))
	for _, h := range w.hashList {
		stream = append(stream, h[:]...)
	}
	stream = binary.AppendUvarint(stream, uint64(rows))
	stream = append(stream, w.body...)

	var out bytes.Buffer
	out.WriteString(colMagic)
	out.WriteByte(colCodecByte)
	out.WriteByte(byte(len(col)))
	out.WriteString(col)
	zw, err := gzip.NewWriterLevel(&out, level)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(stream); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestWriteChunkReusesCompressors writes differently shaped chunk bodies
// in a row, so each write takes the bufio and gzip writers the previous
// one returned to the pools, and requires every file to be byte for byte
// what a fresh chunkLevel writer makes of the same stream. The
// bodies run from empty through compressible varints to incompressible
// bytes larger than the 64 KiB bufio buffer, so deflate state left over
// from one chunk would show in the next.
func TestWriteChunkReusesCompressors(t *testing.T) {
	root := t.TempDir()
	rng := rand.New(rand.NewSource(1))
	shapes := []func(w *colWriter) int{
		func(w *colWriter) int { return 0 },
		func(w *colWriter) int {
			for i := 0; i < 5000; i++ {
				w.uvarint(uint64(i % 7))
			}
			return 5000
		},
		func(w *colWriter) int {
			p := make([]byte, 200<<10)
			rng.Read(p)
			w.raw(p)
			return 1
		},
		func(w *colWriter) int {
			for i := 0; i < 3000; i++ {
				var a types.Address
				var h types.Hash
				rng.Read(a[:4])
				rng.Read(h[:2])
				w.addr(a)
				w.hash(h)
				w.svarint(rng.Int63n(1<<40) - 1<<39)
			}
			return 3000
		},
		func(w *colWriter) int { w.byte1(0x42); return 1 },
	}
	for round := 0; round < 3; round++ {
		for i, shape := range shapes {
			w := newColWriter()
			rows := shape(w)
			col := ColHeaders
			if i%2 == 1 {
				col = ColLogs
			}
			seg := filepath.Join(root, "seg", string(rune('a'+i)))
			fi, err := writeChunk(root, seg, col, rows, w)
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(seg, col+colExt))
			if err != nil {
				t.Fatal(err)
			}
			if want := freshChunkBytes(t, col, rows, w, chunkLevel); !bytes.Equal(got, want) {
				t.Fatalf("round %d chunk %d: %d bytes differ from a fresh writer's %d", round, i, len(got), len(want))
			}
			if fi.Count != rows {
				t.Fatalf("round %d chunk %d: count %d, want %d", round, i, fi.Count, rows)
			}
		}
	}
}

// redeflate rewrites the chunk fi of the archive at root as a file at
// the same path under dst whose stream is deflated at level, and returns
// the copy's integrity record.
func redeflate(t *testing.T, root, dst string, fi FileInfo, col string, level int) FileInfo {
	t.Helper()
	r, err := readChunk(root, fi, col)
	if err != nil {
		t.Fatal(err)
	}
	w := &colWriter{addrList: r.addrs, hashList: r.hashes, body: append([]byte(nil), r.body...)}
	rows := r.rows
	r.release()
	path := filepath.Join(dst, filepath.FromSlash(fi.Name))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, freshChunkBytes(t, col, rows, w, level), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := fileInfoFor(dst, path, rows)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// decodeColumn decodes one segment chunk with its column's decoder.
func decodeColumn(root string, ci ColumnInfo) (any, error) {
	switch ci.Name {
	case ColHeaders:
		return decodeHeadersCol(root, ci)
	case ColTxs:
		return decodeTxsCol(root, ci)
	case ColReceipts:
		return decodeReceiptsCol(root, ci)
	case ColLogs:
		return decodeLogsCol(root, ci)
	case ColFlashbots:
		return decodeFlashbotsCol(root, ci)
	default:
		return decodeObservedCol(root, ci)
	}
}

// TestDecodeBestCompressionChunk: archives written before chunkLevel
// deflated every chunk at BestCompression (level 9). The level is not
// part of the format, so each chunk of windowArchive's two-vantage
// world, and its price series, re-deflated at level 9 must decode to
// exactly the rows of the chunkLevel file.
func TestDecodeBestCompressionChunk(t *testing.T) {
	dir, man := windowArchive(t)
	old := t.TempDir()
	rows := map[string]int{}
	differ := 0
	for _, si := range man.Segments {
		for _, ci := range si.Columns {
			oldCI := ci
			oldCI.File = redeflate(t, dir, old, ci.File, ci.Name, gzip.BestCompression)
			if oldCI.File.SHA256 != ci.File.SHA256 {
				differ++
			}
			want, err := decodeColumn(dir, ci)
			if err != nil {
				t.Fatal(err)
			}
			got, err := decodeColumn(old, oldCI)
			if err != nil {
				t.Fatalf("level-9 %s: %v", ci.File.Name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("level-9 %s decodes to other rows than the level-%d file", ci.File.Name, chunkLevel)
			}
			rows[strings.TrimSuffix(ci.Name, "_v1")] += ci.File.Count
		}
	}
	oldMan := *man
	oldMan.Prices = redeflate(t, dir, old, man.Prices, colPrices, gzip.BestCompression)
	want, err := readPrices(dir, man)
	if err != nil {
		t.Fatal(err)
	}
	got, err := readPrices(old, &oldMan)
	if err != nil {
		t.Fatalf("level-9 prices: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("level-9 prices chunk decodes to another series")
	}
	for _, col := range []string{ColHeaders, ColTxs, ColReceipts, ColLogs, ColFlashbots, ColObserved} {
		if rows[col] == 0 {
			t.Errorf("the world's %s chunks hold no rows, so the test does not cover them", col)
		}
	}
	if differ == 0 {
		t.Error("every level-9 chunk equals its chunkLevel file byte for byte, so the test shows nothing")
	}
}
