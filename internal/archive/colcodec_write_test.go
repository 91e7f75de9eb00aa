package archive

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"mevscope/internal/types"
)

// freshChunkBytes encodes a chunk file the way writeChunk's format says,
// with a gzip writer built for this one chunk: the plain header, then a
// BestCompression stream of the dictionaries, the row count and the body.
func freshChunkBytes(t *testing.T, col string, rows int, w *colWriter) []byte {
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
	zw, err := gzip.NewWriterLevel(&out, gzip.BestCompression)
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
// what a fresh BestCompression writer makes of the same stream. The
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
			if want := freshChunkBytes(t, col, rows, w); !bytes.Equal(got, want) {
				t.Fatalf("round %d chunk %d: %d bytes differ from a fresh writer's %d", round, i, len(got), len(want))
			}
			if fi.Count != rows {
				t.Fatalf("round %d chunk %d: count %d, want %d", round, i, fi.Count, rows)
			}
		}
	}
}
