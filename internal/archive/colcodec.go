package archive

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"mevscope/internal/events"
	"mevscope/internal/types"
)

// The column-chunk encoding: one chunk file per (month, column), so a
// reader can decode exactly the columns a query touches, plus the price
// series as one more chunk at the archive root. A chunk file is:
//
//	offset 0:  magic "MCOL" (4 bytes, plain)
//	offset 4:  codec byte 0x03 (plain)
//	offset 5:  column-name length byte + column name (plain)
//	then:      gzip stream of sections, deflated at chunkLevel:
//	             address dictionary  uvarint count, count × 20 bytes
//	             hash dictionary     uvarint count, count × 32 bytes
//	             row count           uvarint
//	             body               column-specific field streams
//
// The body uses column-appropriate codecs: delta+uvarint for block
// numbers, zigzag-delta varints for timestamps and observed-at moments,
// first-appearance dictionaries for addresses and 32-byte hashes that
// repeat (miners, senders, venues, log topics), zigzag varints for
// amounts, and raw bytes for genuinely incompressible values (parent
// hashes, observed tx hashes, log data). The plain header keeps format
// detection decompression-free, the gzip CRC plus the manifest SHA-256
// (over the stored bytes) catch corruption, and every dictionary
// reference is bounds-checked so a bit flip that survives framing is
// refused rather than mis-attributed.
//
// The deflate level is not part of the format: inflate reads a stream
// of any level, so archives written at BestCompression (level 9, before
// chunkLevel) still read, and a level change alters the bytes but not
// the codec byte or the manifest version.

const (
	// colMagic opens every column-chunk file.
	colMagic = "MCOL"
	// colCodecByte is the chunk codec version the header carries. It
	// dates from manifest version 3 and did not change with version 4,
	// which only moved the price series into a chunk.
	colCodecByte = byte(0x03)
	// colExt is the chunk-file extension.
	colExt = ".col"
	// maxChunkSize caps a chunk's decompressed size; anything larger is
	// corruption, not data (the largest real chunk is one month of
	// transactions, far below this).
	maxChunkSize = 1 << 28
	// maxDictSize caps a dictionary's claimed entry count for the same
	// reason: a corrupt count must not turn into a giant allocation
	// before the gzip trailer CRC gets a chance to fire.
	maxDictSize = 1 << 22
	// chunkLevel is the deflate level of every chunk. A sweep that
	// recompressed all 139 chunk bodies of the seed-1 bpm-100 archive on
	// one core (best of 3) chose it:
	//
	//	level  time    bytes vs level 9
	//	9      425 ms  —
	//	6      233 ms  +0.08%
	//	5      176 ms  +0.36%
	//	4      175 ms  +1.25%
	//	1      108 ms  +5.75%
	//
	// Level 5 is the knee: level 4 saves no time over it and costs three
	// times the bytes, and level 1 breaks the 5% on-disk bound. Inflate
	// speed does not depend on the level.
	chunkLevel = 5
)

// colWriter accumulates one chunk's body while building its address and
// hash dictionaries in first-appearance order, so encoding is fully
// deterministic: the same documents always produce the same bytes (the
// live-rotation ≡ batch file-identity pin depends on it).
type colWriter struct {
	addrIdx  map[types.Address]uint64
	addrList []types.Address
	hashIdx  map[types.Hash]uint64
	hashList []types.Hash
	body     []byte
	// scratch holds the logs writeLog re-encodes to check a shape; each
	// is dropped after the comparison, so the slabs are the only cost.
	scratch events.Arena
}

func newColWriter() *colWriter {
	return &colWriter{
		addrIdx: make(map[types.Address]uint64),
		hashIdx: make(map[types.Hash]uint64),
	}
}

func (w *colWriter) uvarint(v uint64) {
	w.body = binary.AppendUvarint(w.body, v)
}

// svarint writes a zigzag-encoded signed value — small magnitudes of
// either sign stay small on disk (amounts, deltas).
func (w *colWriter) svarint(v int64) {
	w.body = binary.AppendVarint(w.body, v)
}

func (w *colWriter) byte1(b byte) { w.body = append(w.body, b) }

func (w *colWriter) raw(p []byte) { w.body = append(w.body, p...) }

// addr writes a dictionary reference for an address, adding it on first
// appearance.
func (w *colWriter) addr(a types.Address) {
	i, ok := w.addrIdx[a]
	if !ok {
		i = uint64(len(w.addrList))
		w.addrIdx[a] = i
		w.addrList = append(w.addrList, a)
	}
	w.uvarint(i)
}

// hash writes a dictionary reference for a 32-byte hash, adding it on
// first appearance. Use only for hashes that repeat (log topics); unique
// hashes go through raw.
func (w *colWriter) hash(h types.Hash) {
	i, ok := w.hashIdx[h]
	if !ok {
		i = uint64(len(w.hashList))
		w.hashIdx[h] = i
		w.hashList = append(w.hashList, h)
	}
	w.uvarint(i)
}

// writeChunk persists one column chunk into <segDir>/<col>.col: plain
// header, then the gzip stream of dictionaries, row count and body.
// Returns the file's integrity record with Count = rows.
func writeChunk(root, segDir, col string, rows int, w *colWriter) (FileInfo, error) {
	if err := os.MkdirAll(segDir, 0o755); err != nil {
		return FileInfo{}, err
	}
	if len(col) > 255 {
		return FileInfo{}, fmt.Errorf("archive: column name %q too long", col)
	}
	path := filepath.Join(segDir, col+colExt)
	f, err := os.Create(path)
	if err != nil {
		return FileInfo{}, err
	}
	err = func() error {
		bw := chunkBufWriterPool.Get().(*bufio.Writer)
		bw.Reset(f)
		defer chunkBufWriterPool.Put(bw)
		if _, err := bw.WriteString(colMagic); err != nil {
			return err
		}
		if err := bw.WriteByte(colCodecByte); err != nil {
			return err
		}
		if err := bw.WriteByte(byte(len(col))); err != nil {
			return err
		}
		if _, err := bw.WriteString(col); err != nil {
			return err
		}
		zw := chunkGzipWriterPool.Get().(*gzip.Writer)
		zw.Reset(bw)
		defer chunkGzipWriterPool.Put(zw)
		var lenBuf [binary.MaxVarintLen64]byte
		writeUvarint := func(v uint64) error {
			n := binary.PutUvarint(lenBuf[:], v)
			_, err := zw.Write(lenBuf[:n])
			return err
		}
		if err := writeUvarint(uint64(len(w.addrList))); err != nil {
			return err
		}
		for _, a := range w.addrList {
			if _, err := zw.Write(a[:]); err != nil {
				return err
			}
		}
		if err := writeUvarint(uint64(len(w.hashList))); err != nil {
			return err
		}
		for _, h := range w.hashList {
			if _, err := zw.Write(h[:]); err != nil {
				return err
			}
		}
		if err := writeUvarint(uint64(rows)); err != nil {
			return err
		}
		if _, err := zw.Write(w.body); err != nil {
			return err
		}
		if err := zw.Close(); err != nil {
			return err
		}
		return bw.Flush()
	}()
	if err != nil {
		_ = f.Close() // encode error wins; the file is junk either way
		return FileInfo{}, fmt.Errorf("archive: write %s: %w", col, err)
	}
	if err := f.Close(); err != nil {
		return FileInfo{}, err
	}
	return fileInfoFor(root, path, rows)
}

// colReader walks a decoded chunk body with its dictionaries. Every
// accessor is bounds-checked and sets a sticky error instead of
// panicking; callers check err after (or during) their decode loops.
//
// The body lives in a pooled buffer that release hands back for the
// next chunk, so nothing a decoder returns may alias it: accessors
// return addresses, hashes and numbers by value, and a caller of raw
// copies the bytes out (readLog into the arena).
type colReader struct {
	addrs  []types.Address
	hashes []types.Hash
	rows   int
	body   []byte
	off    int
	err    error
	// buf owns body; nil once released or when the body is not pooled.
	buf *bytes.Buffer
	// arena holds the topics and data of the logs readLog rebuilds.
	arena events.Arena
}

// release returns the body to the chunk pool. Every decoder calls it
// (deferred) once readChunk succeeds; r reads nothing afterwards.
func (r *colReader) release() {
	if r.buf != nil {
		chunkBodyPool.Put(r.buf)
		r.buf = nil
	}
	r.body = nil
}

func (r *colReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *colReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.body[r.off:])
	if n <= 0 {
		r.fail("truncated varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *colReader) svarint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.body[r.off:])
	if n <= 0 {
		r.fail("truncated varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *colReader) byte1() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.body) {
		r.fail("truncated byte at offset %d", r.off)
		return 0
	}
	b := r.body[r.off]
	r.off++
	return b
}

func (r *colReader) raw(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.body) {
		r.fail("truncated %d-byte field at offset %d", n, r.off)
		return nil
	}
	p := r.body[r.off : r.off+n]
	r.off += n
	return p
}

func (r *colReader) addr() types.Address {
	i := r.uvarint()
	if r.err != nil {
		return types.Address{}
	}
	if i >= uint64(len(r.addrs)) {
		r.fail("address dictionary reference %d out of range (dictionary has %d entries)", i, len(r.addrs))
		return types.Address{}
	}
	return r.addrs[i]
}

func (r *colReader) hash() types.Hash {
	i := r.uvarint()
	if r.err != nil {
		return types.Hash{}
	}
	if i >= uint64(len(r.hashes)) {
		r.fail("hash dictionary reference %d out of range (dictionary has %d entries)", i, len(r.hashes))
		return types.Hash{}
	}
	return r.hashes[i]
}

func (r *colReader) rawHash() types.Hash {
	var h types.Hash
	copy(h[:], r.raw(len(h)))
	return h
}

// done verifies the body was consumed exactly.
func (r *colReader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.body) {
		return fmt.Errorf("%d trailing bytes after the last row", len(r.body)-r.off)
	}
	return nil
}

// Chunk-decode pools. A read decodes many chunk files — five block
// chunks per month plus one observation chunk per vantage — and a fresh
// 64 KiB bufio buffer pair, a fresh gzip inflater and a body grown by
// doubling per chunk dominated its allocation profile. All of them
// recycle across chunks and across the parallel segment-decode workers:
// the readers and inflater as soon as readChunk returns, the body buffer
// when the decoder calls colReader.release. The dictionaries are not
// pooled; they are small, and the returned colReader keeps them.
//
// The chunk-encode pools do the same for writeChunk: a 64 KiB bufio
// writer and a chunkLevel gzip writer, whose deflate state is about
// 0.9 MB. A write encodes all its chunks on one worker pool
// (writeSegments), so the pools hold about one writer pair per worker.
// Reset gives a pooled writer the state of a fresh one at the same
// level, so every chunk file is byte-identical to a fresh writer's
// whichever worker encodes it.
var (
	chunkBufPool  = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 1<<16) }}
	chunkGzipPool = sync.Pool{New: func() any { return new(gzip.Reader) }}
	chunkBodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

	chunkBufWriterPool  = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 1<<16) }}
	chunkGzipWriterPool = sync.Pool{New: func() any {
		zw, _ := gzip.NewWriterLevel(nil, chunkLevel) // a valid level: never fails
		return zw
	}}
)

// countingReader counts the bytes drawn through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	return n, err
}

// readChunk opens, verifies and fully decompresses one column chunk. The
// SHA-256 is computed on the fly while the stream drains — one read
// pass — and compared against the manifest before any row is released.
// wantCol guards against a chunk file renamed or cross-linked on disk.
//
// The body is inflated into a buffer from chunkBodyPool. The caller
// owns it until it calls release on the returned reader, which every
// decoder defers; since the buffer then decodes another chunk, no value
// a decoder returns may point into the body (see colReader).
func readChunk(root string, fi FileInfo, wantCol string) (_ *colReader, err error) {
	path := filepath.Join(root, filepath.FromSlash(fi.Name))
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	defer f.Close()
	h := sha256.New()
	cr := &countingReader{r: io.TeeReader(f, h)}
	br := chunkBufPool.Get().(*bufio.Reader)
	br.Reset(cr)
	defer chunkBufPool.Put(br)
	var hdr [6]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("archive: %s is not a v3 column chunk", fi.Name)
	}
	if string(hdr[:4]) != colMagic {
		return nil, fmt.Errorf("archive: %s is not a v3 column chunk (bad magic)", fi.Name)
	}
	if hdr[4] != colCodecByte {
		return nil, fmt.Errorf("archive: %s: unsupported chunk codec version %d (want %d)", fi.Name, hdr[4], colCodecByte)
	}
	var nameArr [255]byte
	nameBuf := nameArr[:int(hdr[5])]
	if _, err := io.ReadFull(br, nameBuf); err != nil {
		return nil, fmt.Errorf("archive: %s: truncated column name", fi.Name)
	}
	if string(nameBuf) != wantCol {
		return nil, fmt.Errorf("archive: %s holds column %q, manifest says %q", fi.Name, nameBuf, wantCol)
	}
	zr := chunkGzipPool.Get().(*gzip.Reader)
	defer chunkGzipPool.Put(zr)
	if err := zr.Reset(br); err != nil {
		return nil, fmt.Errorf("archive: %s: %w", fi.Name, err)
	}
	zbr := chunkBufPool.Get().(*bufio.Reader)
	zbr.Reset(zr)
	defer chunkBufPool.Put(zbr)
	r := &colReader{}
	readDict := func(kind string) (int, error) {
		n, err := binary.ReadUvarint(zbr)
		if err != nil {
			return 0, fmt.Errorf("truncated %s dictionary: %w", kind, err)
		}
		if n > maxDictSize {
			return 0, fmt.Errorf("%s dictionary claims %d entries (corrupt count)", kind, n)
		}
		return int(n), nil
	}
	nAddrs, err := readDict("address")
	if err != nil {
		return nil, fmt.Errorf("archive: %s: %w", fi.Name, err)
	}
	r.addrs = make([]types.Address, nAddrs)
	for i := range r.addrs {
		if _, err := io.ReadFull(zbr, r.addrs[i][:]); err != nil {
			return nil, fmt.Errorf("archive: %s: truncated address dictionary: %w", fi.Name, err)
		}
	}
	nHashes, err := readDict("hash")
	if err != nil {
		return nil, fmt.Errorf("archive: %s: %w", fi.Name, err)
	}
	r.hashes = make([]types.Hash, nHashes)
	for i := range r.hashes {
		if _, err := io.ReadFull(zbr, r.hashes[i][:]); err != nil {
			return nil, fmt.Errorf("archive: %s: truncated hash dictionary: %w", fi.Name, err)
		}
	}
	rows, err := binary.ReadUvarint(zbr)
	if err != nil {
		return nil, fmt.Errorf("archive: %s: truncated row count: %w", fi.Name, err)
	}
	if rows > maxChunkSize {
		return nil, fmt.Errorf("archive: %s claims %d rows (corrupt count)", fi.Name, rows)
	}
	r.rows = int(rows)
	body := chunkBodyPool.Get().(*bytes.Buffer)
	body.Reset()
	defer func() {
		if err != nil {
			chunkBodyPool.Put(body)
		}
	}()
	if _, err := body.ReadFrom(io.LimitReader(zbr, maxChunkSize+1)); err != nil {
		return nil, fmt.Errorf("archive: %s: %w", fi.Name, err)
	}
	if body.Len() > maxChunkSize {
		return nil, fmt.Errorf("archive: %s body exceeds the %d-byte chunk cap (corrupt)", fi.Name, maxChunkSize)
	}
	r.buf, r.body = body, body.Bytes()
	if err := zr.Close(); err != nil {
		return nil, fmt.Errorf("archive: %s: %w", fi.Name, err)
	}
	// Drain whatever the buffers did not consume so the hash and size
	// cover the whole stored file.
	if _, err := io.Copy(io.Discard, cr); err != nil {
		return nil, fmt.Errorf("archive: %s: %w", fi.Name, err)
	}
	if hex.EncodeToString(h.Sum(nil)) != fi.SHA256 || cr.n != fi.Bytes {
		return nil, fmt.Errorf("archive: %s is corrupt (checksum mismatch)", fi.Name)
	}
	if r.rows != fi.Count {
		return nil, fmt.Errorf("archive: %s has %d rows, manifest says %d", fi.Name, r.rows, fi.Count)
	}
	// Every column spends at least one body byte per row, so decoders
	// may size their row arrays by rows once it is bounded by the body.
	if r.rows > len(r.body) {
		return nil, fmt.Errorf("archive: %s claims %d rows in a %d-byte body (corrupt)", fi.Name, r.rows, len(r.body))
	}
	return r, nil
}

// Payload presence-mask codec. tx.Hash() covers every payload field
// (recursively through Inner), so the encoding must be lossless: a
// uvarint bitmask records which field groups are non-zero, and only
// those are encoded. Zero-valued fields decode back to zero by omission.
const (
	pfToken = 1 << iota
	pfRecipient
	pfAmount
	pfHops
	pfAmountIn
	pfMinOut
	pfProtocol
	pfLoanID
	pfRepay
	pfFlashToken
	pfFlashAmount
	pfInner
	pfOracleToken
	pfOraclePrice
	pfPayouts
	pfVenue
	pfTokenA
	pfTokenB
	pfAmountA
	pfAmountB
)

func payloadMask(p *types.Payload) uint64 {
	var m uint64
	set := func(bit uint64, on bool) {
		if on {
			m |= bit
		}
	}
	set(pfToken, !p.Token.IsZero())
	set(pfRecipient, !p.Recipient.IsZero())
	set(pfAmount, p.Amount != 0)
	set(pfHops, len(p.Hops) > 0)
	set(pfAmountIn, p.AmountIn != 0)
	set(pfMinOut, p.MinOut != 0)
	set(pfProtocol, !p.Protocol.IsZero())
	set(pfLoanID, p.LoanID != 0)
	set(pfRepay, p.Repay != 0)
	set(pfFlashToken, !p.FlashToken.IsZero())
	set(pfFlashAmount, p.FlashAmount != 0)
	set(pfInner, p.Inner != nil)
	set(pfOracleToken, !p.OracleToken.IsZero())
	set(pfOraclePrice, p.OraclePrice != 0)
	set(pfPayouts, len(p.Payouts) > 0)
	set(pfVenue, !p.Venue.IsZero())
	set(pfTokenA, !p.TokenA.IsZero())
	set(pfTokenB, !p.TokenB.IsZero())
	set(pfAmountA, p.AmountA != 0)
	set(pfAmountB, p.AmountB != 0)
	return m
}

func (w *colWriter) payload(p *types.Payload) {
	w.byte1(byte(p.Kind))
	m := payloadMask(p)
	w.uvarint(m)
	if m&pfToken != 0 {
		w.addr(p.Token)
	}
	if m&pfRecipient != 0 {
		w.addr(p.Recipient)
	}
	if m&pfAmount != 0 {
		w.svarint(int64(p.Amount))
	}
	if m&pfHops != 0 {
		w.uvarint(uint64(len(p.Hops)))
		for _, h := range p.Hops {
			w.addr(h.Venue)
			w.addr(h.TokenIn)
			w.addr(h.TokenOut)
		}
	}
	if m&pfAmountIn != 0 {
		w.svarint(int64(p.AmountIn))
	}
	if m&pfMinOut != 0 {
		w.svarint(int64(p.MinOut))
	}
	if m&pfProtocol != 0 {
		w.addr(p.Protocol)
	}
	if m&pfLoanID != 0 {
		w.uvarint(p.LoanID)
	}
	if m&pfRepay != 0 {
		w.svarint(int64(p.Repay))
	}
	if m&pfFlashToken != 0 {
		w.addr(p.FlashToken)
	}
	if m&pfFlashAmount != 0 {
		w.svarint(int64(p.FlashAmount))
	}
	if m&pfInner != 0 {
		w.payload(p.Inner)
	}
	if m&pfOracleToken != 0 {
		w.addr(p.OracleToken)
	}
	if m&pfOraclePrice != 0 {
		w.svarint(int64(p.OraclePrice))
	}
	if m&pfPayouts != 0 {
		w.uvarint(uint64(len(p.Payouts)))
		for _, e := range p.Payouts {
			w.addr(e.To)
			w.svarint(int64(e.Amount))
		}
	}
	if m&pfVenue != 0 {
		w.addr(p.Venue)
	}
	if m&pfTokenA != 0 {
		w.addr(p.TokenA)
	}
	if m&pfTokenB != 0 {
		w.addr(p.TokenB)
	}
	if m&pfAmountA != 0 {
		w.svarint(int64(p.AmountA))
	}
	if m&pfAmountB != 0 {
		w.svarint(int64(p.AmountB))
	}
}

// maxPayloadDepth bounds Inner recursion on decode so a corrupt mask
// cannot stack-overflow the reader.
const maxPayloadDepth = 16

func (r *colReader) payload(depth int) types.Payload {
	var p types.Payload
	if depth > maxPayloadDepth {
		r.fail("payload nesting exceeds depth %d (corrupt)", maxPayloadDepth)
		return p
	}
	p.Kind = types.TxKind(r.byte1())
	m := r.uvarint()
	if m&pfToken != 0 {
		p.Token = r.addr()
	}
	if m&pfRecipient != 0 {
		p.Recipient = r.addr()
	}
	if m&pfAmount != 0 {
		p.Amount = types.Amount(r.svarint())
	}
	if m&pfHops != 0 {
		n := r.uvarint()
		if n > uint64(len(r.body)) {
			r.fail("hop count %d exceeds chunk body (corrupt)", n)
			return p
		}
		p.Hops = make([]types.SwapHop, n)
		for i := range p.Hops {
			p.Hops[i] = types.SwapHop{Venue: r.addr(), TokenIn: r.addr(), TokenOut: r.addr()}
		}
	}
	if m&pfAmountIn != 0 {
		p.AmountIn = types.Amount(r.svarint())
	}
	if m&pfMinOut != 0 {
		p.MinOut = types.Amount(r.svarint())
	}
	if m&pfProtocol != 0 {
		p.Protocol = r.addr()
	}
	if m&pfLoanID != 0 {
		p.LoanID = r.uvarint()
	}
	if m&pfRepay != 0 {
		p.Repay = types.Amount(r.svarint())
	}
	if m&pfFlashToken != 0 {
		p.FlashToken = r.addr()
	}
	if m&pfFlashAmount != 0 {
		p.FlashAmount = types.Amount(r.svarint())
	}
	if m&pfInner != 0 {
		inner := r.payload(depth + 1)
		p.Inner = &inner
	}
	if m&pfOracleToken != 0 {
		p.OracleToken = r.addr()
	}
	if m&pfOraclePrice != 0 {
		p.OraclePrice = types.Amount(r.svarint())
	}
	if m&pfPayouts != 0 {
		n := r.uvarint()
		if n > uint64(len(r.body)) {
			r.fail("payout count %d exceeds chunk body (corrupt)", n)
			return p
		}
		p.Payouts = make([]types.PayoutEntry, n)
		for i := range p.Payouts {
			p.Payouts[i] = types.PayoutEntry{To: r.addr(), Amount: types.Amount(r.svarint())}
		}
	}
	if m&pfVenue != 0 {
		p.Venue = r.addr()
	}
	if m&pfTokenA != 0 {
		p.TokenA = r.addr()
	}
	if m&pfTokenB != 0 {
		p.TokenB = r.addr()
	}
	if m&pfAmountA != 0 {
		p.AmountA = types.Amount(r.svarint())
	}
	if m&pfAmountB != 0 {
		p.AmountB = types.Amount(r.svarint())
	}
	return p
}
