package dex

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"mevscope/internal/types"
)

// bigQuote is the arbitrary-precision reference for Quote: the
// constant-product formula evaluated with math/big, as AmountOut did
// before the fixed-width version replaced it.
func bigQuote(rin, rout, in types.Amount, feeBps int) types.Amount {
	feeNum := big.NewInt(int64(10000 - feeBps))
	inF := new(big.Int).Mul(big.NewInt(int64(in)), feeNum)
	num := new(big.Int).Mul(big.NewInt(int64(rout)), inF)
	den := new(big.Int).Mul(big.NewInt(int64(rin)), big.NewInt(10000))
	den.Add(den, inF)
	return types.Amount(num.Div(num, den).Int64())
}

// logUniform draws a positive amount whose bit length is uniform over
// 1..63, so tiny, mainnet-sized and near-2^63 values all appear.
func logUniform(rng *rand.Rand) types.Amount {
	bits := 1 + rng.Intn(63)
	v := rng.Int63() >> (63 - bits)
	if v <= 0 {
		v = 1
	}
	return types.Amount(v)
}

func checkQuote(t *testing.T, rin, rout, in types.Amount, feeBps int) {
	t.Helper()
	if got, want := Quote(rin, rout, in, feeBps), bigQuote(rin, rout, in, feeBps); got != want {
		t.Fatalf("Quote(%d, %d, %d, %d) = %d, math/big says %d", rin, rout, in, feeBps, got, want)
	}
}

func TestQuoteMatchesBigInt(t *testing.T) {
	const maxA = types.Amount(math.MaxInt64)
	// Past this reserve rin·10000 no longer fits in 64 bits.
	const wideDen = types.Amount(math.MaxUint64/10000 + 1)
	edges := []types.Amount{1, 2, 3, 9999, 10000, types.Gwei, types.Ether,
		wideDen - 1, wideDen, wideDen + 1, 1 << 62, maxA - 1, maxA}
	fees := []int{0, 1, 4, 30, 9999, 10000}
	for _, rin := range edges {
		for _, rout := range edges {
			for _, in := range edges {
				for _, fee := range fees {
					checkQuote(t, rin, rout, in, fee)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200_000; i++ {
		fee := rng.Intn(10001)
		if i%4 == 0 {
			fee = fees[rng.Intn(len(fees))]
		}
		checkQuote(t, logUniform(rng), logUniform(rng), logUniform(rng), fee)
	}
	// Genesis-scale pools: a cheap token's reserve past the 64-bit
	// denominator, quoted with trade sizes from dust to the whole pool.
	for i := 0; i < 20_000; i++ {
		rin := wideDen + types.Amount(rng.Int63n(int64(maxA-wideDen)))
		checkQuote(t, rin, logUniform(rng), logUniform(rng), 30)
		checkQuote(t, logUniform(rng), rin, logUniform(rng), 30)
	}
}

func TestQuoteNonPositiveInputs(t *testing.T) {
	for _, c := range [][3]types.Amount{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}, {-1, 5, 5}, {5, -1, 5}, {5, 5, -1}} {
		if got := Quote(c[0], c[1], c[2], 30); got != 0 {
			t.Errorf("Quote(%d, %d, %d, 30) = %d, want 0", c[0], c[1], c[2], got)
		}
	}
	if got := Quote(types.Ether, types.Ether, types.Ether, 10001); got != 0 {
		t.Errorf("a fee above 100%% quoted %d, want 0", got)
	}
}

func FuzzQuote(f *testing.F) {
	f.Add(int64(1000*types.Ether), int64(2_000_000*types.Ether), int64(types.Ether), uint16(30))
	f.Add(int64(math.MaxInt64), int64(math.MaxInt64), int64(math.MaxInt64), uint16(0))
	f.Add(int64(math.MaxUint64/10000+1), int64(3), int64(math.MaxInt64), uint16(9999))
	f.Add(int64(1), int64(1), int64(1), uint16(10000))
	f.Fuzz(func(t *testing.T, rin, rout, in int64, fee uint16) {
		if rin <= 0 || rout <= 0 || in <= 0 {
			return
		}
		checkQuote(t, types.Amount(rin), types.Amount(rout), types.Amount(in), int(fee)%10001)
	})
}
