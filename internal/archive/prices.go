package archive

import (
	"fmt"

	"mevscope/internal/prices"
	"mevscope/internal/types"
)

// The price series is one more column chunk, prices.col at the archive
// root, with one row per token in ascending address order:
//
//	token        address dictionary reference, per row
//	point count  uvarint, per row
//	block        per point, row by row: uvarint, the first absolute and
//	             the rest as deltas from the previous point (≥ 1)
//	price        per point, row by row: zigzag varint
//
// Block deltas stay small because a token's points ascend, and the
// dictionary holds each token once.

// colPrices names the prices chunk. It is not a selectable column: every
// full read and every shared restore loads it.
const colPrices = "prices"

// writePrices persists the price series as the prices chunk. A nil
// series writes an empty one.
func writePrices(root string, pr *prices.Series) (FileInfo, error) {
	var toks []types.Address
	var hist [][]prices.Point
	if pr != nil {
		toks = pr.Tokens()
		for _, tok := range toks {
			hist = append(hist, pr.History(tok))
		}
	}
	w := newColWriter()
	for _, tok := range toks {
		w.addr(tok)
	}
	for _, pts := range hist {
		w.uvarint(uint64(len(pts)))
	}
	for i, pts := range hist {
		for j, p := range pts {
			if j == 0 {
				w.uvarint(p.Block)
				continue
			}
			if p.Block <= pts[j-1].Block {
				return FileInfo{}, fmt.Errorf("archive: price history for %v not ascending at point %d", toks[i].Short(), j)
			}
			w.uvarint(p.Block - pts[j-1].Block)
		}
	}
	for _, pts := range hist {
		for _, p := range pts {
			w.svarint(int64(p.Price))
		}
	}
	return writeChunk(root, root, colPrices, len(toks), w)
}

// readPrices restores the archive's price series from its prices chunk,
// refusing a token listed twice or a history that does not ascend.
func readPrices(dir string, man *Manifest) (*prices.Series, error) {
	r, err := readChunk(dir, man.Prices, colPrices)
	if err != nil {
		return nil, err
	}
	defer r.release()
	toks := make([]types.Address, r.rows)
	for i := range toks {
		toks[i] = r.addr()
	}
	counts := make([]int, r.rows)
	for i := range counts {
		c := r.uvarint()
		if c > uint64(len(r.body)) {
			r.fail("point count %d exceeds chunk body (corrupt)", c)
			break
		}
		counts[i] = int(c)
	}
	hist := make([][]prices.Point, r.rows)
	for i, c := range counts {
		if r.err != nil {
			break
		}
		pts := make([]prices.Point, c)
		var block uint64
		for j := range pts {
			if j == 0 {
				block = r.uvarint()
			} else {
				block += r.uvarint()
			}
			pts[j].Block = block
		}
		hist[i] = pts
	}
	for _, pts := range hist {
		for j := range pts {
			pts[j].Price = types.Amount(r.svarint())
		}
	}
	if err := r.done(); err != nil {
		return nil, fmt.Errorf("archive: %s: %w", man.Prices.Name, err)
	}
	pr := prices.NewSeries()
	seen := make(map[types.Address]bool, len(toks))
	for i, tok := range toks {
		if seen[tok] {
			return nil, fmt.Errorf("archive: %s lists token %v twice (corrupt)", man.Prices.Name, tok.Short())
		}
		seen[tok] = true
		if err := pr.Restore(tok, hist[i]); err != nil {
			return nil, fmt.Errorf("archive: %s: %w", man.Prices.Name, err)
		}
	}
	return pr, nil
}
