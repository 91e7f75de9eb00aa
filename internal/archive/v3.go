package archive

import (
	"bytes"
	"fmt"
	"path/filepath"
	"time"
	"unsafe"

	"mevscope/internal/dataset"
	"mevscope/internal/events"
	"mevscope/internal/flashbots"
	"mevscope/internal/obs"
	"mevscope/internal/p2p"
	"mevscope/internal/parallel"
	"mevscope/internal/types"
)

// The column layout. One month becomes one chunk file per column:
//
//	<dir>/2020-05/
//	  headers.col     block headers + per-block tx counts
//	  txs.col         transactions (dictionary senders, presence-mask payloads)
//	  receipts.col    execution outcomes (TxHash derived from txs on read)
//	  logs.col        event logs (dictionary addresses and topics)
//	  flashbots.col   public blocks-API records
//	  observed.col    primary vantage captures (observed_vN.col per extra vantage)
//
// The manifest records one ColumnInfo per chunk: the file's integrity
// record plus a zone map (month, min/max block, min/max gas price) that
// every decode recomputes and checks; the shared restore also reads the
// observation chunks' zones to check their filing before decoding any.
// Receipt TxHash is not stored — receipts align positionally with
// transactions, so the reader derives it, and the writer refuses any
// segment where the stored receipt identity drifts from the recomputed
// transaction hash.

// Column names of the segment chunks. Extra vantages store under
// "observed_v1", "observed_v2", ….
const (
	ColHeaders   = "headers"
	ColTxs       = "txs"
	ColReceipts  = "receipts"
	ColLogs      = "logs"
	ColFlashbots = "flashbots"
	ColObserved  = "observed"
)

// findColumn locates a segment's chunk record by column name.
func findColumn(si SegmentInfo, name string) (ColumnInfo, error) {
	for _, ci := range si.Columns {
		if ci.Name == name {
			return ci, nil
		}
	}
	return ColumnInfo{}, fmt.Errorf("archive: segment %s has no %q column", si.Label, name)
}

// ---------------------------------------------------------------------------
// Encode

// writeSegments persists months as per-column chunks and returns their
// manifest entries in order. It checks every month before writing
// anything, then runs every (month, column) encoder — six columns plus
// one per extra vantage — on one worker pool, so a single rotated month
// uses every core and a batch write of many months has no nested pools.
// Each entry lists its chunks in column order, and a chunk's bytes do
// not depend on the worker that encodes it.
func writeSegments(root string, segs []*dataset.Segment) ([]SegmentInfo, error) {
	type job struct {
		seg int
		enc func() (ColumnInfo, error)
	}
	infos := make([]SegmentInfo, len(segs))
	var jobs []job
	for i, seg := range segs {
		info, encs, err := segmentEncoders(root, seg)
		if err != nil {
			return nil, err
		}
		infos[i] = info
		for _, enc := range encs {
			jobs = append(jobs, job{i, enc})
		}
	}
	type result struct {
		ci  ColumnInfo
		err error
	}
	results := parallel.Map(len(jobs), 0, func(j int) result {
		ci, err := jobs[j].enc()
		return result{ci, err}
	})
	for j, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		si := &infos[jobs[j].seg]
		si.Columns = append(si.Columns, r.ci)
	}
	return infos, nil
}

// segmentEncoders checks one month and returns its manifest entry, still
// without chunk records, and its chunk encoders in column order:
// headers, transactions, receipts, logs, Flashbots records, the primary
// vantage's captures, then one chunk per extra vantage. The entry's
// FileInfo count slots hold logical document counts (drift checks, span
// sizing).
func segmentEncoders(root string, seg *dataset.Segment) (SegmentInfo, []func() (ColumnInfo, error), error) {
	label := SegmentLabel(seg.Month)
	segDir := filepath.Join(root, label)
	info := SegmentInfo{
		Month:      seg.Month,
		Label:      label,
		FirstBlock: seg.Blocks[0].Header.Number,
		LastBlock:  seg.Blocks[len(seg.Blocks)-1].Header.Number,
		Blocks:     FileInfo{Count: len(seg.Blocks)},
		Flashbots:  FileInfo{Count: len(seg.FBBlocks)},
		Observed:   FileInfo{Count: len(seg.Observed)},
	}
	// Receipt identity is derived on read, so the stored archive can only
	// be faithful if it holds at write time — refuse drift here, where
	// the original data still exists.
	for _, b := range seg.Blocks {
		if len(b.Receipts) != len(b.Txs) {
			return info, nil, fmt.Errorf("archive: segment %s block %d has %d receipts for %d txs",
				label, b.Header.Number, len(b.Receipts), len(b.Txs))
		}
		for i, rcpt := range b.Receipts {
			if rcpt.TxHash != b.Txs[i].Hash() {
				return info, nil, fmt.Errorf("archive: segment %s block %d tx %d: identity drift (receipt %v vs recomputed %v)",
					label, b.Header.Number, i, rcpt.TxHash.Short(), b.Txs[i].Hash().Short())
			}
		}
	}
	encoders := []func() (ColumnInfo, error){
		func() (ColumnInfo, error) { return encodeHeadersCol(root, segDir, seg.Month, seg.Blocks) },
		func() (ColumnInfo, error) { return encodeTxsCol(root, segDir, seg.Month, seg.Blocks) },
		func() (ColumnInfo, error) { return encodeReceiptsCol(root, segDir, seg.Month, seg.Blocks) },
		func() (ColumnInfo, error) { return encodeLogsCol(root, segDir, seg.Month, seg.Blocks) },
		func() (ColumnInfo, error) { return encodeFlashbotsCol(root, segDir, seg.Month, seg.FBBlocks) },
		func() (ColumnInfo, error) {
			return encodeObservedCol(root, segDir, seg.Month, ColObserved, seg.Observed)
		},
	}
	for v := range seg.ObservedV {
		name, recs := fmt.Sprintf("%s_v%d", ColObserved, v+1), seg.ObservedV[v]
		encoders = append(encoders, func() (ColumnInfo, error) { return encodeObservedCol(root, segDir, seg.Month, name, recs) })
		info.ObservedV = append(info.ObservedV, FileInfo{Count: len(recs)})
	}
	return info, encoders, nil
}

func encodeHeadersCol(root, segDir string, month types.Month, blocks []*types.Block) (ColumnInfo, error) {
	w := newColWriter()
	var prevNum uint64
	for i, b := range blocks {
		n := b.Header.Number
		if i == 0 {
			w.uvarint(n)
		} else {
			if n < prevNum {
				return ColumnInfo{}, fmt.Errorf("archive: segment %s blocks out of order (%d after %d)", segDir, n, prevNum)
			}
			w.uvarint(n - prevNum)
		}
		prevNum = n
	}
	var prevTime int64
	for i, b := range blocks {
		ns := b.Header.Time.UnixNano()
		if i == 0 {
			w.svarint(ns)
		} else {
			w.svarint(ns - prevTime)
		}
		prevTime = ns
	}
	for _, b := range blocks {
		w.raw(b.Header.ParentHash[:])
	}
	for _, b := range blocks {
		w.addr(b.Header.Miner)
	}
	var prevFee int64
	for i, b := range blocks {
		f := int64(b.Header.BaseFee)
		if i == 0 {
			w.svarint(f)
		} else {
			w.svarint(f - prevFee)
		}
		prevFee = f
	}
	var prevLimit int64
	for i, b := range blocks {
		l := int64(b.Header.GasLimit)
		if i == 0 {
			w.svarint(l)
		} else {
			w.svarint(l - prevLimit)
		}
		prevLimit = l
	}
	for _, b := range blocks {
		w.uvarint(b.Header.GasUsed)
	}
	for _, b := range blocks {
		w.uvarint(uint64(len(b.Txs)))
	}
	fi, err := writeChunk(root, segDir, ColHeaders, len(blocks), w)
	if err != nil {
		return ColumnInfo{}, err
	}
	ci := ColumnInfo{Name: ColHeaders, Month: month, File: fi}
	if len(blocks) > 0 {
		ci.MinBlock = blocks[0].Header.Number
		ci.MaxBlock = blocks[len(blocks)-1].Header.Number
	}
	return ci, nil
}

func encodeTxsCol(root, segDir string, month types.Month, blocks []*types.Block) (ColumnInfo, error) {
	var flat []*types.Transaction
	for _, b := range blocks {
		flat = append(flat, b.Txs...)
	}
	w := newColWriter()
	for _, tx := range flat {
		w.uvarint(tx.Nonce)
	}
	for _, tx := range flat {
		w.addr(tx.From)
	}
	for _, tx := range flat {
		w.addr(tx.To)
	}
	for _, tx := range flat {
		w.svarint(int64(tx.Value))
	}
	for _, tx := range flat {
		w.uvarint(tx.GasLimit)
	}
	for _, tx := range flat {
		w.svarint(int64(tx.GasPrice))
	}
	for _, tx := range flat {
		w.svarint(int64(tx.FeeCap))
	}
	for _, tx := range flat {
		w.svarint(int64(tx.TipCap))
	}
	for _, tx := range flat {
		w.svarint(int64(tx.CoinbaseTip))
	}
	for _, tx := range flat {
		w.payload(&tx.Payload)
	}
	fi, err := writeChunk(root, segDir, ColTxs, len(flat), w)
	if err != nil {
		return ColumnInfo{}, err
	}
	ci := ColumnInfo{Name: ColTxs, Month: month, File: fi}
	if len(blocks) > 0 {
		ci.MinBlock = blocks[0].Header.Number
		ci.MaxBlock = blocks[len(blocks)-1].Header.Number
	}
	for i, tx := range flat {
		p := tx.BidPrice()
		if i == 0 || p < ci.MinGas {
			ci.MinGas = p
		}
		if i == 0 || p > ci.MaxGas {
			ci.MaxGas = p
		}
	}
	return ci, nil
}

func encodeReceiptsCol(root, segDir string, month types.Month, blocks []*types.Block) (ColumnInfo, error) {
	var flat []*types.Receipt
	for _, b := range blocks {
		flat = append(flat, b.Receipts...)
	}
	w := newColWriter()
	for _, r := range flat {
		w.svarint(int64(r.TxIndex))
	}
	for _, r := range flat {
		w.byte1(byte(r.Status))
	}
	for _, r := range flat {
		w.uvarint(r.GasUsed)
	}
	for _, r := range flat {
		w.svarint(int64(r.EffectiveGasPrice))
	}
	for _, r := range flat {
		w.svarint(int64(r.CoinbaseTransfer))
	}
	fi, err := writeChunk(root, segDir, ColReceipts, len(flat), w)
	if err != nil {
		return ColumnInfo{}, err
	}
	ci := ColumnInfo{Name: ColReceipts, Month: month, File: fi}
	if len(blocks) > 0 {
		ci.MinBlock = blocks[0].Header.Number
		ci.MaxBlock = blocks[len(blocks)-1].Header.Number
	}
	for i, r := range flat {
		p := r.EffectiveGasPrice
		if i == 0 || p < ci.MinGas {
			ci.MinGas = p
		}
		if i == 0 || p > ci.MaxGas {
			ci.MaxGas = p
		}
	}
	return ci, nil
}

// Log-row shape tags. Logs emitted by the simulated protocols follow the
// typed vocabulary in internal/events, so most rows encode as a shape tag
// plus dictionary refs and varint amounts instead of raw topics+data —
// the topic hashes are recomputed from the addresses at decode. Rows that
// don't round-trip through an event shape byte-exactly fall back to
// logShapeRaw.
const (
	logShapeRaw = iota
	logShapeTransfer
	logShapeSwap
	logShapeSync
	logShapeLiqAave
	logShapeLiqCompound
	logShapeFlashLoan
	logShapeOracle
)

// logEqual reports byte-exact equality, the bar a structured shape must
// clear before replacing the raw encoding.
func logEqual(a, b types.Log) bool {
	if a.Address != b.Address || len(a.Topics) != len(b.Topics) || !bytes.Equal(a.Data, b.Data) {
		return false
	}
	for i := range a.Topics {
		if a.Topics[i] != b.Topics[i] {
			return false
		}
	}
	return true
}

// writeLog emits one log row, preferring a structured event shape. The
// shape check re-encodes the event into the writer's scratch arena,
// which allocates one slab per few hundred logs.
func (w *colWriter) writeLog(lg types.Log) {
	a := &w.scratch
	if ev, ok := events.DecodeTransfer(lg); ok && logEqual(lg, ev.LogIn(a)) {
		w.byte1(logShapeTransfer)
		w.addr(ev.Token)
		w.addr(ev.From)
		w.addr(ev.To)
		w.uvarint(uint64(ev.Amount))
		return
	}
	if ev, ok := events.DecodeSwap(lg); ok && logEqual(lg, ev.LogIn(a)) {
		w.byte1(logShapeSwap)
		w.addr(ev.Pool)
		w.addr(ev.Sender)
		w.addr(ev.Recipient)
		w.addr(ev.TokenIn)
		w.addr(ev.TokenOut)
		w.uvarint(uint64(ev.AmountIn))
		w.uvarint(uint64(ev.AmountOut))
		return
	}
	if ev, ok := events.DecodeSync(lg); ok && logEqual(lg, ev.LogIn(a)) {
		w.byte1(logShapeSync)
		w.addr(ev.Pool)
		w.uvarint(uint64(ev.ReserveA))
		w.uvarint(uint64(ev.ReserveB))
		return
	}
	if ev, ok := events.DecodeLiquidation(lg); ok && logEqual(lg, ev.LogIn(a)) {
		if ev.Compound {
			w.byte1(logShapeLiqCompound)
		} else {
			w.byte1(logShapeLiqAave)
		}
		w.addr(ev.Protocol)
		w.addr(ev.Liquidator)
		w.addr(ev.Borrower)
		w.addr(ev.DebtToken)
		w.addr(ev.CollateralToken)
		w.uvarint(uint64(ev.DebtRepaid))
		w.uvarint(uint64(ev.CollateralOut))
		return
	}
	if ev, ok := events.DecodeFlashLoan(lg); ok && logEqual(lg, ev.LogIn(a)) {
		w.byte1(logShapeFlashLoan)
		w.addr(ev.Protocol)
		w.addr(ev.Initiator)
		w.addr(ev.Token)
		w.uvarint(uint64(ev.Amount))
		w.uvarint(uint64(ev.Fee))
		return
	}
	if ev, ok := events.DecodeOracleUpdate(lg); ok && logEqual(lg, ev.LogIn(a)) {
		w.byte1(logShapeOracle)
		w.addr(ev.Oracle)
		w.addr(ev.Token)
		w.uvarint(uint64(ev.Price))
		return
	}
	w.byte1(logShapeRaw)
	w.addr(lg.Address)
	w.uvarint(uint64(len(lg.Topics)))
	for _, t := range lg.Topics {
		w.hash(t)
	}
	w.uvarint(uint64(len(lg.Data)))
	w.raw(lg.Data)
}

// readLog decodes one log row written by writeLog, cutting its topics
// and data from the reader's arena. A raw row's data is copied out of
// the body.
func (r *colReader) readLog() types.Log {
	a := &r.arena
	switch tag := r.byte1(); tag {
	case logShapeTransfer:
		ev := events.Transfer{Token: r.addr(), From: r.addr(), To: r.addr()}
		ev.Amount = types.Amount(r.uvarint())
		return ev.LogIn(a)
	case logShapeSwap:
		ev := events.Swap{Pool: r.addr(), Sender: r.addr(), Recipient: r.addr(),
			TokenIn: r.addr(), TokenOut: r.addr()}
		ev.AmountIn = types.Amount(r.uvarint())
		ev.AmountOut = types.Amount(r.uvarint())
		return ev.LogIn(a)
	case logShapeSync:
		ev := events.Sync{Pool: r.addr()}
		ev.ReserveA = types.Amount(r.uvarint())
		ev.ReserveB = types.Amount(r.uvarint())
		return ev.LogIn(a)
	case logShapeLiqAave, logShapeLiqCompound:
		ev := events.Liquidation{Protocol: r.addr(), Liquidator: r.addr(), Borrower: r.addr(),
			DebtToken: r.addr(), CollateralToken: r.addr(), Compound: tag == logShapeLiqCompound}
		ev.DebtRepaid = types.Amount(r.uvarint())
		ev.CollateralOut = types.Amount(r.uvarint())
		return ev.LogIn(a)
	case logShapeFlashLoan:
		ev := events.FlashLoan{Protocol: r.addr(), Initiator: r.addr(), Token: r.addr()}
		ev.Amount = types.Amount(r.uvarint())
		ev.Fee = types.Amount(r.uvarint())
		return ev.LogIn(a)
	case logShapeOracle:
		ev := events.OracleUpdate{Oracle: r.addr(), Token: r.addr()}
		ev.Price = types.Amount(r.uvarint())
		return ev.LogIn(a)
	case logShapeRaw:
		var lg types.Log
		lg.Address = r.addr()
		nt := r.uvarint()
		if nt > uint64(len(r.body)) {
			r.fail("topic count %d exceeds chunk body (corrupt)", nt)
			return types.Log{}
		}
		if nt > 0 {
			lg.Topics = a.Topics(int(nt))
			for k := range lg.Topics {
				lg.Topics[k] = r.hash()
			}
		}
		nd := r.uvarint()
		if raw := r.raw(int(nd)); len(raw) > 0 {
			lg.Data = a.Data(len(raw))
			copy(lg.Data, raw)
		}
		return lg
	default:
		r.fail("unknown log shape tag %d (corrupt)", tag)
		return types.Log{}
	}
}

func encodeLogsCol(root, segDir string, month types.Month, blocks []*types.Block) (ColumnInfo, error) {
	var flat []*types.Receipt
	for _, b := range blocks {
		flat = append(flat, b.Receipts...)
	}
	w := newColWriter()
	for _, r := range flat {
		w.uvarint(uint64(len(r.Logs)))
	}
	for _, r := range flat {
		for _, lg := range r.Logs {
			w.writeLog(lg)
		}
	}
	fi, err := writeChunk(root, segDir, ColLogs, len(flat), w)
	if err != nil {
		return ColumnInfo{}, err
	}
	ci := ColumnInfo{Name: ColLogs, Month: month, File: fi}
	if len(blocks) > 0 {
		ci.MinBlock = blocks[0].Header.Number
		ci.MaxBlock = blocks[len(blocks)-1].Header.Number
	}
	return ci, nil
}

func encodeFlashbotsCol(root, segDir string, month types.Month, recs []flashbots.BlockRecord) (ColumnInfo, error) {
	w := newColWriter()
	var prevNum uint64
	for i, rec := range recs {
		if i == 0 {
			w.uvarint(rec.BlockNumber)
		} else {
			if rec.BlockNumber < prevNum {
				return ColumnInfo{}, fmt.Errorf("archive: segment %s flashbots records out of order", segDir)
			}
			w.uvarint(rec.BlockNumber - prevNum)
		}
		prevNum = rec.BlockNumber
	}
	for _, rec := range recs {
		w.addr(rec.Miner)
	}
	for _, rec := range recs {
		w.svarint(int64(rec.MinerReward))
	}
	for _, rec := range recs {
		w.uvarint(uint64(len(rec.Txs)))
	}
	for _, rec := range recs {
		for _, tx := range rec.Txs {
			w.raw(tx.Hash[:])
			w.addr(tx.EOA)
			w.uvarint(tx.BundleID)
			w.svarint(int64(tx.BundleIndex))
			w.byte1(byte(tx.BundleType))
			w.uvarint(tx.GasUsed)
			w.svarint(int64(tx.GasPrice))
			w.svarint(int64(tx.CoinbaseTransfer))
		}
	}
	fi, err := writeChunk(root, segDir, ColFlashbots, len(recs), w)
	if err != nil {
		return ColumnInfo{}, err
	}
	ci := ColumnInfo{Name: ColFlashbots, Month: month, File: fi}
	if len(recs) > 0 {
		ci.MinBlock = recs[0].BlockNumber
		ci.MaxBlock = recs[len(recs)-1].BlockNumber
	}
	return ci, nil
}

func encodeObservedCol(root, segDir string, month types.Month, name string, recs []p2p.ObservedTx) (ColumnInfo, error) {
	w := newColWriter()
	for _, rec := range recs {
		w.raw(rec.Hash[:])
	}
	var prevBlock int64
	for i, rec := range recs {
		n := int64(rec.FirstSeenBlock)
		if i == 0 {
			w.svarint(n)
		} else {
			w.svarint(n - prevBlock)
		}
		prevBlock = n
	}
	var prevSeen int64
	for i, rec := range recs {
		ns := rec.FirstSeen.UnixNano()
		if i == 0 {
			w.svarint(ns)
		} else {
			w.svarint(ns - prevSeen)
		}
		prevSeen = ns
	}
	for _, rec := range recs {
		w.uvarint(uint64(rec.Hops))
	}
	fi, err := writeChunk(root, segDir, name, len(recs), w)
	if err != nil {
		return ColumnInfo{}, err
	}
	ci := ColumnInfo{Name: name, Month: month, File: fi}
	for i, rec := range recs {
		if i == 0 || rec.FirstSeenBlock < ci.MinBlock {
			ci.MinBlock = rec.FirstSeenBlock
		}
		if i == 0 || rec.FirstSeenBlock > ci.MaxBlock {
			ci.MaxBlock = rec.FirstSeenBlock
		}
	}
	return ci, nil
}

// ---------------------------------------------------------------------------
// Decode

// colHeadersData is a decoded headers chunk, one array per field.
type colHeadersData struct {
	numbers   []uint64
	parents   []types.Hash
	times     []int64 // UnixNano
	miners    []types.Address
	baseFees  []types.Amount
	gasLimits []uint64
	gasUseds  []uint64
	txCounts  []int
	totalTxs  int
}

// zoneError reports a chunk whose decoded payload disagrees with the
// manifest's zone map — the zone maps steer chunk skipping, so a drifted
// one means reads would silently miss data; refuse instead.
func zoneError(ci ColumnInfo, what string, wantMin, wantMax, gotMin, gotMax int64) error {
	return fmt.Errorf("archive: %s: zone map disagrees with payload (%s %d..%d, payload %d..%d)",
		ci.File.Name, what, wantMin, wantMax, gotMin, gotMax)
}

func verifyBlockZone(ci ColumnInfo, min, max uint64, rows int) error {
	if rows == 0 {
		if ci.MinBlock != 0 || ci.MaxBlock != 0 {
			return zoneError(ci, "blocks", int64(ci.MinBlock), int64(ci.MaxBlock), 0, 0)
		}
		return nil
	}
	if ci.MinBlock != min || ci.MaxBlock != max {
		return zoneError(ci, "blocks", int64(ci.MinBlock), int64(ci.MaxBlock), int64(min), int64(max))
	}
	return nil
}

func verifyGasZone(ci ColumnInfo, min, max types.Amount, rows int) error {
	if rows == 0 {
		return nil
	}
	if ci.MinGas != min || ci.MaxGas != max {
		return zoneError(ci, "gas", int64(ci.MinGas), int64(ci.MaxGas), int64(min), int64(max))
	}
	return nil
}

func decodeHeadersCol(dir string, ci ColumnInfo) (*colHeadersData, error) {
	r, err := readChunk(dir, ci.File, ColHeaders)
	if err != nil {
		return nil, err
	}
	defer r.release()
	n := r.rows
	d := &colHeadersData{
		numbers:   make([]uint64, n),
		parents:   make([]types.Hash, n),
		times:     make([]int64, n),
		miners:    make([]types.Address, n),
		baseFees:  make([]types.Amount, n),
		gasLimits: make([]uint64, n),
		gasUseds:  make([]uint64, n),
		txCounts:  make([]int, n),
	}
	var prevNum uint64
	for i := range d.numbers {
		delta := r.uvarint()
		if i == 0 {
			prevNum = delta
		} else {
			prevNum += delta
		}
		d.numbers[i] = prevNum
	}
	var prevTime int64
	for i := range d.times {
		delta := r.svarint()
		if i == 0 {
			prevTime = delta
		} else {
			prevTime += delta
		}
		d.times[i] = prevTime
	}
	for i := range d.parents {
		d.parents[i] = r.rawHash()
	}
	for i := range d.miners {
		d.miners[i] = r.addr()
	}
	var prevFee int64
	for i := range d.baseFees {
		delta := r.svarint()
		if i == 0 {
			prevFee = delta
		} else {
			prevFee += delta
		}
		d.baseFees[i] = types.Amount(prevFee)
	}
	var prevLimit int64
	for i := range d.gasLimits {
		delta := r.svarint()
		if i == 0 {
			prevLimit = delta
		} else {
			prevLimit += delta
		}
		d.gasLimits[i] = uint64(prevLimit)
	}
	for i := range d.gasUseds {
		d.gasUseds[i] = r.uvarint()
	}
	for i := range d.txCounts {
		c := r.uvarint()
		if c > uint64(len(r.body)) {
			r.fail("tx count %d exceeds chunk body (corrupt)", c)
			break
		}
		d.txCounts[i] = int(c)
		d.totalTxs += int(c)
	}
	if err := r.done(); err != nil {
		return nil, fmt.Errorf("archive: %s: %w", ci.File.Name, err)
	}
	if n > 0 {
		if err := verifyBlockZone(ci, d.numbers[0], d.numbers[n-1], n); err != nil {
			return nil, err
		}
	}
	return d, nil
}

func decodeTxsCol(dir string, ci ColumnInfo) ([]*types.Transaction, error) {
	r, err := readChunk(dir, ci.File, ColTxs)
	if err != nil {
		return nil, err
	}
	defer r.release()
	n := r.rows
	slab := make([]types.Transaction, n)
	txs := make([]*types.Transaction, n)
	for i := range txs {
		txs[i] = &slab[i]
	}
	for _, tx := range txs {
		tx.Nonce = r.uvarint()
	}
	for _, tx := range txs {
		tx.From = r.addr()
	}
	for _, tx := range txs {
		tx.To = r.addr()
	}
	for _, tx := range txs {
		tx.Value = types.Amount(r.svarint())
	}
	for _, tx := range txs {
		tx.GasLimit = r.uvarint()
	}
	for _, tx := range txs {
		tx.GasPrice = types.Amount(r.svarint())
	}
	for _, tx := range txs {
		tx.FeeCap = types.Amount(r.svarint())
	}
	for _, tx := range txs {
		tx.TipCap = types.Amount(r.svarint())
	}
	for _, tx := range txs {
		tx.CoinbaseTip = types.Amount(r.svarint())
	}
	for _, tx := range txs {
		tx.Payload = r.payload(0)
	}
	if err := r.done(); err != nil {
		return nil, fmt.Errorf("archive: %s: %w", ci.File.Name, err)
	}
	var minGas, maxGas types.Amount
	for i, tx := range txs {
		p := tx.BidPrice()
		if i == 0 || p < minGas {
			minGas = p
		}
		if i == 0 || p > maxGas {
			maxGas = p
		}
	}
	if err := verifyGasZone(ci, minGas, maxGas, n); err != nil {
		return nil, err
	}
	return txs, nil
}

// decodeReceiptsCol decodes receipts without TxHash or Logs, which
// readSegment fills in from the transaction and log columns.
func decodeReceiptsCol(dir string, ci ColumnInfo) ([]types.Receipt, error) {
	r, err := readChunk(dir, ci.File, ColReceipts)
	if err != nil {
		return nil, err
	}
	defer r.release()
	n := r.rows
	rcpts := make([]types.Receipt, n)
	for i := range rcpts {
		rcpts[i].TxIndex = int(r.svarint())
	}
	for i := range rcpts {
		rcpts[i].Status = types.ReceiptStatus(r.byte1())
	}
	for i := range rcpts {
		rcpts[i].GasUsed = r.uvarint()
	}
	for i := range rcpts {
		rcpts[i].EffectiveGasPrice = types.Amount(r.svarint())
	}
	for i := range rcpts {
		rcpts[i].CoinbaseTransfer = types.Amount(r.svarint())
	}
	if err := r.done(); err != nil {
		return nil, fmt.Errorf("archive: %s: %w", ci.File.Name, err)
	}
	var minGas, maxGas types.Amount
	for i := range rcpts {
		p := rcpts[i].EffectiveGasPrice
		if i == 0 || p < minGas {
			minGas = p
		}
		if i == 0 || p > maxGas {
			maxGas = p
		}
	}
	if err := verifyGasZone(ci, minGas, maxGas, n); err != nil {
		return nil, err
	}
	return rcpts, nil
}

// decodeLogsCol decodes each receipt's logs as a capped window into one
// slab, their topics and data cut from the chunk's events.Arena.
func decodeLogsCol(dir string, ci ColumnInfo) ([][]types.Log, error) {
	r, err := readChunk(dir, ci.File, ColLogs)
	if err != nil {
		return nil, err
	}
	defer r.release()
	n := r.rows
	counts := make([]int, n)
	total := 0
	for i := range counts {
		c := r.uvarint()
		if c > uint64(len(r.body)) {
			r.fail("log count %d exceeds chunk body (corrupt)", c)
			break
		}
		counts[i] = int(c)
		total += int(c)
	}
	// Every log row takes at least one byte, so a count sum past the
	// bytes left is corrupt — refuse it before sizing the slab by it.
	if r.err == nil && total > len(r.body)-r.off {
		r.fail("log counts sum to %d, more than the %d body bytes left (corrupt)", total, len(r.body)-r.off)
	}
	var all []types.Log
	if r.err == nil {
		all = make([]types.Log, total)
	}
	logs := make([][]types.Log, n)
	for i, c := range counts {
		if r.err != nil {
			break
		}
		if c == 0 {
			continue
		}
		ls := all[:c:c]
		all = all[c:]
		for j := range ls {
			ls[j] = r.readLog()
		}
		logs[i] = ls
	}
	if err := r.done(); err != nil {
		return nil, fmt.Errorf("archive: %s: %w", ci.File.Name, err)
	}
	return logs, nil
}

func decodeFlashbotsCol(dir string, ci ColumnInfo) ([]flashbots.BlockRecord, error) {
	r, err := readChunk(dir, ci.File, ColFlashbots)
	if err != nil {
		return nil, err
	}
	defer r.release()
	n := r.rows
	recs := make([]flashbots.BlockRecord, n)
	var prevNum uint64
	for i := range recs {
		delta := r.uvarint()
		if i == 0 {
			prevNum = delta
		} else {
			prevNum += delta
		}
		recs[i].BlockNumber = prevNum
	}
	for i := range recs {
		recs[i].Miner = r.addr()
	}
	for i := range recs {
		recs[i].MinerReward = types.Amount(r.svarint())
	}
	counts := make([]int, n)
	for i := range counts {
		c := r.uvarint()
		if c > uint64(len(r.body)) {
			r.fail("bundle tx count %d exceeds chunk body (corrupt)", c)
			break
		}
		counts[i] = int(c)
	}
	for i := range recs {
		if r.err != nil {
			break
		}
		if counts[i] == 0 {
			continue
		}
		txs := make([]flashbots.TxRecord, counts[i])
		for j := range txs {
			txs[j].Hash = r.rawHash()
			txs[j].EOA = r.addr()
			txs[j].BundleID = r.uvarint()
			txs[j].BundleIndex = int(r.svarint())
			txs[j].BundleType = flashbots.BundleType(r.byte1())
			txs[j].GasUsed = r.uvarint()
			txs[j].GasPrice = types.Amount(r.svarint())
			txs[j].CoinbaseTransfer = types.Amount(r.svarint())
		}
		recs[i].Txs = txs
	}
	if err := r.done(); err != nil {
		return nil, fmt.Errorf("archive: %s: %w", ci.File.Name, err)
	}
	if n > 0 {
		min, max := recs[0].BlockNumber, recs[0].BlockNumber
		for _, rec := range recs {
			if rec.BlockNumber < min {
				min = rec.BlockNumber
			}
			if rec.BlockNumber > max {
				max = rec.BlockNumber
			}
		}
		if err := verifyBlockZone(ci, min, max, n); err != nil {
			return nil, err
		}
	}
	return recs, nil
}

func decodeObservedCol(dir string, ci ColumnInfo) ([]p2p.ObservedTx, error) {
	r, err := readChunk(dir, ci.File, ci.Name)
	if err != nil {
		return nil, err
	}
	defer r.release()
	n := r.rows
	recs := make([]p2p.ObservedTx, n)
	for i := range recs {
		recs[i].Hash = r.rawHash()
	}
	var prevBlock int64
	for i := range recs {
		delta := r.svarint()
		if i == 0 {
			prevBlock = delta
		} else {
			prevBlock += delta
		}
		recs[i].FirstSeenBlock = uint64(prevBlock)
	}
	var prevSeen int64
	for i := range recs {
		delta := r.svarint()
		if i == 0 {
			prevSeen = delta
		} else {
			prevSeen += delta
		}
		recs[i].FirstSeen = time.Unix(0, prevSeen).UTC()
	}
	for i := range recs {
		recs[i].Hops = int(r.uvarint())
	}
	if err := r.done(); err != nil {
		return nil, fmt.Errorf("archive: %s: %w", ci.File.Name, err)
	}
	if n > 0 {
		min, max := recs[0].FirstSeenBlock, recs[0].FirstSeenBlock
		for _, rec := range recs {
			if rec.FirstSeenBlock < min {
				min = rec.FirstSeenBlock
			}
			if rec.FirstSeenBlock > max {
				max = rec.FirstSeenBlock
			}
		}
		if err := verifyBlockZone(ci, min, max, n); err != nil {
			return nil, err
		}
	}
	return recs, nil
}

// ---------------------------------------------------------------------------
// Segment read

// chunkLoader decodes the chunks of one segment, recording one
// "archive:column" span per chunk under a lazily created
// "archive:decode" segment span.
type chunkLoader struct {
	dir string
	si  SegmentInfo
	rsp *obs.Span
	dsp *obs.Span
}

func (cl *chunkLoader) decodeSpan() *obs.Span {
	if cl.dsp == nil {
		cl.dsp = cl.rsp.Child(obs.StageDecode)
		cl.dsp.SetLabel(cl.si.Label)
		cl.dsp.SetBlocks(cl.si.Blocks.Count)
	}
	return cl.dsp
}

func (cl *chunkLoader) end() { cl.dsp.End() }

// decode finds the segment's chunk record of column name and decodes
// the verified chunk file with dec.
func decode[T any](cl *chunkLoader, name string, dec func(dir string, ci ColumnInfo) (T, error)) (T, error) {
	var zero T
	ci, err := findColumn(cl.si, name)
	if err != nil {
		return zero, err
	}
	if ci.Month != cl.si.Month {
		return zero, fmt.Errorf("archive: %s: zone map month %s disagrees with segment %s",
			ci.File.Name, ci.Month.Label(), cl.si.Label)
	}
	sp := cl.decodeSpan().Child(obs.StageColumn)
	sp.SetLabel(cl.si.Label + "/" + name)
	sp.SetBytes(ci.File.Bytes)
	defer sp.End()
	return dec(cl.dir, ci)
}

// readSegment decodes one month's block chunks — headers, transactions,
// receipts, logs and the Flashbots records — into a dataset segment. It
// is the one place a block is assembled from decoded chunks: month
// reads, range reads and block lookups all go through it. An empty
// block's transaction and receipt lists stay nil, as the miner leaves
// them. It never decodes observation chunks: the month's readers take
// the observation network from their shared restore.
func readSegment(dir string, si SegmentInfo, rsp *obs.Span) (*dataset.Segment, error) {
	cl := &chunkLoader{dir: dir, si: si, rsp: rsp}
	defer cl.end()

	hd, err := decode(cl, ColHeaders, decodeHeadersCol)
	if err != nil {
		return nil, err
	}
	txs, err := decode(cl, ColTxs, decodeTxsCol)
	if err != nil {
		return nil, err
	}
	rcpts, err := decode(cl, ColReceipts, decodeReceiptsCol)
	if err != nil {
		return nil, err
	}
	logs, err := decode(cl, ColLogs, decodeLogsCol)
	if err != nil {
		return nil, err
	}
	// The header tx counts sum to totalTxs, so once every column has that
	// many rows no block's slice can overrun it.
	if len(txs) != hd.totalTxs || len(rcpts) != hd.totalTxs || len(logs) != hd.totalTxs {
		return nil, fmt.Errorf("archive: segment %s has %d txs, %d receipts and logs for %d receipts, headers say %d",
			si.Label, len(txs), len(rcpts), len(logs), hd.totalTxs)
	}
	fbs, err := decode(cl, ColFlashbots, decodeFlashbotsCol)
	if err != nil {
		return nil, err
	}

	seg := &dataset.Segment{Month: si.Month, FBBlocks: fbs}
	seg.Blocks = make([]*types.Block, len(hd.numbers))
	// The blocks and the blocks' receipt views each come from one slab.
	blocks := make([]types.Block, len(hd.numbers))
	views := make([]*types.Receipt, len(rcpts))
	base := 0
	for i := range seg.Blocks {
		b := &blocks[i]
		b.Header = types.Header{
			Number:     hd.numbers[i],
			ParentHash: hd.parents[i],
			Time:       time.Unix(0, hd.times[i]).UTC(),
			Miner:      hd.miners[i],
			BaseFee:    hd.baseFees[i],
			GasLimit:   hd.gasLimits[i],
			GasUsed:    hd.gasUseds[i],
		}
		if cnt := hd.txCounts[i]; cnt > 0 {
			end := base + cnt
			b.Txs = txs[base:end:end]
			b.Receipts = views[base:end:end]
			for j := base; j < end; j++ {
				rcpts[j].TxHash = txs[j].Hash()
				rcpts[j].Logs = logs[j]
				views[j] = &rcpts[j]
			}
			base = end
		}
		b.Seal()
		seg.Blocks[i] = b
	}
	return seg, nil
}

// ReadBlocks restores the sealed blocks of the archive's month segment
// si, in block order — the blocks a full restore holds for that month,
// assembled by readSegment. Every chunk it reads is checksum-verified.
// It is the month read behind `mevscope serve`'s /v1/block, which keeps
// recently looked-up months in memory.
func ReadBlocks(dir string, si SegmentInfo) ([]*types.Block, error) {
	seg, err := readSegment(dir, si, nil)
	if err != nil {
		return nil, err
	}
	return seg.Blocks, nil
}

// RetainedBytes is the heap the blocks of one ReadBlocks call retain:
// every array they hold at its element size times its capacity — blocks,
// transactions and their payloads, receipts, logs and the logs' topics
// and data — plus an eighth for allocator size-class rounding and the
// unused tails of the month's log slabs, as measure.Partial.SizeBytes
// counts a month partial. The windows readSegment cuts from one slab are
// capped at their lengths, so counting each window counts its slab once.
func RetainedBytes(blocks []*types.Block) int64 {
	n := arrayBytes(blocks) + int64(len(blocks))*int64(unsafe.Sizeof(types.Block{}))
	for _, b := range blocks {
		n += arrayBytes(b.Txs) + arrayBytes(b.Receipts)
		for _, tx := range b.Txs {
			n += int64(unsafe.Sizeof(*tx)) + payloadBytes(&tx.Payload)
		}
		for _, r := range b.Receipts {
			n += int64(unsafe.Sizeof(*r)) + arrayBytes(r.Logs)
			for _, lg := range r.Logs {
				n += arrayBytes(lg.Topics) + arrayBytes(lg.Data)
			}
		}
	}
	return n + n/8
}

// arrayBytes is the size of the array backing s.
func arrayBytes[T any](s []T) int64 {
	var zero T
	return int64(unsafe.Sizeof(zero)) * int64(cap(s))
}

// payloadBytes is the heap a payload's hops, payouts and inner payloads
// hold.
func payloadBytes(p *types.Payload) int64 {
	n := arrayBytes(p.Hops) + arrayBytes(p.Payouts)
	if p.Inner != nil {
		n += int64(unsafe.Sizeof(*p.Inner)) + payloadBytes(p.Inner)
	}
	return n
}
