package sim

import "mevscope/internal/types"

// MonthCal is the per-calendar-month calibration row driving agent
// behaviour. The values are chosen so the *measured* outputs of the
// pipeline land near the shapes the paper reports (adoption and hashrate
// curves, the April-2021 gas dip, the profit-distribution shift, the
// private/public split). No scorecard of measured-vs-paper values exists
// yet; ROADMAP item 11 plans one.
type MonthCal struct {
	// Trader behaviour.
	TraderTxPerBlock float64 // mean public swaps per block
	TradeSizeETH     float64 // median swap size
	BigTradeProb     float64 // probability a swap is sandwich-sized
	GasBaseGwei      float64 // typical non-MEV gas price level

	// MEV searcher activity.
	SandwichTakeRate float64 // probability a sandwichable victim is attacked
	ArbAttempts      float64 // mean arbitrage executions per block
	LiqScan          bool    // liquidators active at all
	// RogueMiscProb emits a non-MEV rogue bundle (miner-internal
	// transactions never broadcast) per Flashbots block.
	RogueMiscProb float64

	// Channel mix per MEV type: probability of Flashbots and of another
	// private pool; the remainder goes public. Forced public before the
	// Flashbots launch and when no private pool is live.
	SandwichFB, SandwichPriv float64
	ArbFB, ArbPriv           float64
	LiqFB, LiqPriv           float64

	// Flash-loan usage probabilities (Table 1: 0.29 % of arbitrages,
	// 5.09 % of liquidations).
	ArbFlashLoanProb float64
	LiqFlashLoanProb float64

	// Flashbots-specific behaviour. Protected (non-MEV) bundle traffic is
	// bursty: with probability ProtectedBurstProb a block carries
	// 1+Poisson(ProtectedBurstSize) protection bundles — this burstiness
	// is what keeps the Flashbots block ratio near the paper's ~50-60 %
	// even at ~100 % miner adoption.
	ProtectedBurstProb float64
	ProtectedBurstSize float64
	TipFrac            float64 // sealed-bid tip as fraction of gross
	FaultyProb         float64 // probability a bundle's tip exceeds gross (§5.2)
	RogueProb          float64 // miner self-MEV as a rogue bundle, per own block

	// Pre/non-Flashbots behaviour.
	MinerSelfProb  float64 // miner inserts its own sandwich, per own block
	PGACompetition float64 // probability a public sandwich triggers a bidding war
	PGARounds      int     // escalation rounds in the bidding war

	// Credit-market activity.
	NewLoanProb     float64 // new risky loan per block
	OracleShockProb float64 // debt-token price jump creating liquidations

	// Population sizes (distinct active identities, for Figure 7a).
	ActiveSandwichers int
	ActiveArbers      int
	ActiveLiquidators int
	ActiveProtected   int
}

// ramp eases a value across months [a,b].
func ramp(m, a, b types.Month, from, to float64) float64 {
	if m <= a {
		return from
	}
	if m >= b {
		return to
	}
	f := float64(m-a) / float64(b-a)
	return from + (to-from)*f
}

// DefaultCalibration builds the 23-month table. Month indexes: 0 = May
// 2020 … 9 = Feb 2021 (Flashbots launch) … 15 = Aug 2021 (London) … 22 =
// Mar 2022.
func DefaultCalibration() [types.StudyMonths]MonthCal {
	var cal [types.StudyMonths]MonthCal
	for i := range cal {
		m := types.Month(i)
		c := MonthCal{
			TraderTxPerBlock: 7 + ramp(m, 0, 12, 0, 2),
			TradeSizeETH:     3,
			BigTradeProb:     0.045,
			LiqScan:          true,
			NewLoanProb:      0.012,
			OracleShockProb:  0.006,
			ArbFlashLoanProb: 0.004,
			LiqFlashLoanProb: 0.06,
			TipFrac:          0.85,
			FaultyProb:       0.012,
		}

		// Gas base: modest organic growth through 2020-21, easing after
		// London, slight climb into 2022. The dramatic pre-April-2021 peak
		// comes endogenously from priority gas auctions, not this base.
		switch {
		case m < 6: // May-Oct 2020
			c.GasBaseGwei = ramp(m, 0, 6, 35, 60)
		case m < 11: // Nov 2020 - Mar 2021
			c.GasBaseGwei = ramp(m, 6, 11, 60, 75)
		case m < 16: // Apr - Aug 2021
			c.GasBaseGwei = ramp(m, 11, 16, 55, 45)
		default: // Sep 2021 - Mar 2022: the §4.5 uptick
			c.GasBaseGwei = ramp(m, 16, 22, 55, 95)
		}

		// MEV volume: arbitrage ≈ 3.4× sandwiches overall (Table 1),
		// liquidations rare; activity grows through 2021.
		c.SandwichTakeRate = 0.9 - ramp(m, 8, 14, 0, 0.15) - ramp(m, 17, 22, 0, 0.1)
		c.ArbAttempts = 0.75 + ramp(m, 0, 14, 0, 0.3) - ramp(m, 17, 22, 0, 0.15)

		// Channel mix. Everything is public before the launch month.
		if m >= types.FlashbotsLaunchMonth {
			// Flashbots share of sandwiches ramps steeply: 47.6 % of all
			// sandwiches across the whole window end up via Flashbots and
			// ≈81 % within Nov-21..Mar-22.
			c.SandwichFB = ramp(m, 9, 13, 0.30, 0.80)
			c.SandwichPriv = 0
			c.ArbFB = ramp(m, 9, 13, 0.20, 0.45)
			c.LiqFB = ramp(m, 9, 13, 0.20, 0.45)
			c.TipFrac = 0.80 + ramp(m, 9, 16, 0, 0.10) // sealed-bid overbidding grows
			c.RogueProb = 0.08
			c.RogueMiscProb = 0.11
			// Protected-bundle bursts follow the adoption curve, peak in
			// July 2021 (Fig. 3's 60.6 %), then decline below half.
			switch {
			case m <= 14:
				c.ProtectedBurstProb = ramp(m, 9, 14, 0.15, 0.45)
			default:
				c.ProtectedBurstProb = ramp(m, 14, 22, 0.45, 0.26)
			}
			c.ProtectedBurstSize = 2.1
		}
		// Other private pools rise from Sep 2021 (§6).
		if m >= 16 {
			c.SandwichPriv = ramp(m, 16, 19, 0.05, 0.135)
			c.ArbPriv = ramp(m, 16, 19, 0.03, 0.10)
			c.LiqPriv = ramp(m, 16, 19, 0.03, 0.08)
		}

		// Priority gas auctions dominate public MEV until Flashbots
		// absorbs it: intensity collapses over Feb-Apr 2021 — this is
		// what produces the Figure 6 gas-price dip.
		c.PGACompetition = ramp(m, 0, 8, 0.55, 0.8)
		if m >= 9 {
			c.PGACompetition = ramp(m, 9, 12, 0.6, 0.10)
		}
		c.PGARounds = 3
		if m >= 11 {
			c.PGARounds = 2
		}

		// Miner self-extraction exists throughout (pre-FB: direct
		// insertion; post-FB single-miner private channels keep going).
		c.MinerSelfProb = 0.05

		// Populations (Figure 7a): grow to an August-2021 peak, then
		// decline and level out.
		peak := types.Month(15)
		c.ActiveSandwichers = int(ramp(m, 9, peak, 4, 26) - ramp(m, peak, 22, 0, 10))
		c.ActiveArbers = int(ramp(m, 9, peak, 6, 34) - ramp(m, peak, 22, 0, 12))
		c.ActiveLiquidators = int(ramp(m, 9, peak, 2, 8) - ramp(m, peak, 22, 0, 3))
		c.ActiveProtected = int(ramp(m, 9, peak, 150, 1400) - ramp(m, peak, 22, 0, 500))
		if m < types.FlashbotsLaunchMonth {
			c.ActiveProtected = 0
		}
		if c.ActiveSandwichers < 1 {
			c.ActiveSandwichers = 1
		}
		if c.ActiveArbers < 1 {
			c.ActiveArbers = 1
		}
		if c.ActiveLiquidators < 1 {
			c.ActiveLiquidators = 1
		}

		cal[i] = c
	}
	return cal
}

// disableFlashbots rewrites a calibration table into the counterfactual
// where Flashbots never launches: all MEV stays in the public gas auction
// at pre-2021 intensity, no protected bundles, no miner bundles.
func disableFlashbots(cal *[types.StudyMonths]MonthCal) {
	for i := range cal {
		c := &cal[i]
		c.SandwichFB, c.SandwichPriv = 0, 0
		c.ArbFB, c.ArbPriv = 0, 0
		c.LiqFB, c.LiqPriv = 0, 0
		c.ProtectedBurstProb = 0
		c.RogueProb, c.RogueMiscProb = 0, 0
		c.PGACompetition = 0.8
		c.PGARounds = 3
	}
}

// scalePrivateAdoption multiplies the non-Flashbots private-pool channel
// probabilities by scale (0 and 1 keep the calibrated baseline). Scaled-up
// adoption starts at the Flashbots launch — in the high-adoption
// counterfactual private channels never wait for the §6 late-2021 rise —
// seeded from the month-16 calibration. Each probability caps at 0.45 so
// pickChannel's public remainder stays meaningful.
func scalePrivateAdoption(cal *[types.StudyMonths]MonthCal, scale float64) {
	if scale <= 0 || scale == 1 {
		return
	}
	const maxPriv = 0.45
	clamp := func(p float64) float64 {
		if p > maxPriv {
			return maxPriv
		}
		return p
	}
	// Baselines for months that have zero private adoption in the default
	// calibration (16 is the first month with nonzero Priv values).
	base := cal[16]
	for i := range cal {
		c := &cal[i]
		m := types.Month(i)
		if scale > 1 && m >= types.FlashbotsLaunchMonth && c.SandwichPriv == 0 && c.SandwichFB > 0 {
			c.SandwichPriv, c.ArbPriv, c.LiqPriv = base.SandwichPriv, base.ArbPriv, base.LiqPriv
		}
		c.SandwichPriv = clamp(c.SandwichPriv * scale)
		c.ArbPriv = clamp(c.ArbPriv * scale)
		c.LiqPriv = clamp(c.LiqPriv * scale)
	}
}

// AdoptionTargets is the cumulative Flashbots hashpower share the miner
// set should reach by each month (§4.3: 61.7 % by March 2021, 97.6 % by
// May, ~99.9 % from autumn on).
func AdoptionTargets() map[types.Month]float64 {
	return map[types.Month]float64{
		9:  0.32, // Feb 2021 (launch)
		10: 0.62, // Mar
		11: 0.80, // Apr
		12: 0.976,
		13: 0.985,
		14: 0.992,
		15: 0.995,
		16: 0.997,
		17: 0.999,
	}
}
