// Package privinfer implements the paper's §6.1 private-transaction
// inference: a mined transaction is private exactly when the measurement
// observer never saw it in the public mempool. Combined with the Flashbots
// public API this classifies MEV extractions into three channels —
// public, Flashbots, and private non-Flashbots — and reproduces the §6.3
// attribution of single-miner private pools.
package privinfer

import (
	"sort"
	"sync"

	"mevscope/internal/chain"
	"mevscope/internal/core/detect"
	"mevscope/internal/flashbots"
	obspkg "mevscope/internal/obs"
	"mevscope/internal/parallel"
	"mevscope/internal/types"
)

// Channel is the inferred submission path of a mined transaction set.
type Channel uint8

// Inferred channels.
const (
	// ChannelPublic transactions were observed pending before inclusion.
	ChannelPublic Channel = iota
	// ChannelFlashbots transactions appear in the Flashbots blocks API.
	ChannelFlashbots
	// ChannelPrivate transactions were never observed pending and are not
	// in the Flashbots dataset: another private pool.
	ChannelPrivate
)

// String names the channel.
func (c Channel) String() string {
	switch c {
	case ChannelPublic:
		return "public"
	case ChannelFlashbots:
		return "flashbots"
	case ChannelPrivate:
		return "private"
	default:
		return "unknown"
	}
}

// Observer is the view the inference needs of the pending-transaction
// recorder: whether a hash was ever seen, and the recording window.
type Observer interface {
	Seen(h types.Hash) bool
	Window() (start, stop uint64)
}

// Inferrer classifies mined transactions.
type Inferrer struct {
	Chain *chain.Chain
	Obs   Observer
	FBSet map[types.Hash]flashbots.BundleType

	// WindowStart and WindowEnd bound the analysis to blocks where the
	// observer was live (the paper's Nov 23rd 2021 – Mar 23rd 2022 range).
	WindowStart, WindowEnd uint64

	// Workers sizes the classification worker pool (< 1 = every core, as
	// parallel.Workers reads it). Classification is read-only over the
	// chain, observer and Flashbots set, and per-extraction verdicts are
	// reduced in input order, so results are identical for any worker
	// count.
	Workers int

	// Span, when non-nil, is the parent each classification fan-out
	// records itself under as an "infer" span (internal/obs). The memoized
	// paths record nothing — they do no work. Nil disables tracing.
	Span *obspkg.Span

	// Sandwich verdicts memoized per input slice: Figure 9, the MEV split
	// and the §6.3 attribution all classify the same detector sweep, so
	// the verdicts compute once and are shared (guarded for the
	// concurrent report builders).
	mu        sync.Mutex
	cacheKey  *detect.Sandwich
	cacheLen  int
	cacheVerd []verdict

	// Incremental verdict logs, maintained by Feed: verdicts for the first
	// fedSand/fedArb/fedLiq detections of the streaming sweep. Verdicts
	// are stable as the world grows (observer records are append-only, a
	// transaction's Flashbots membership is fixed at inclusion and the
	// window start is fixed), so a logged verdict never needs revisiting.
	// The fed*Key pointers pin the identity of the fed slices so the logs
	// are never returned for an unrelated slice of equal length.
	fedSand, fedArb, fedLiq int
	sandLog, arbLog, liqLog []verdict
	fedSandKey              *detect.Sandwich
	fedArbKey               *detect.Arbitrage
	fedLiqKey               *detect.Liquidation
}

// New creates an Inferrer over the observation window. If start/stop are
// zero they default to the observer's own window and the chain head.
func New(c *chain.Chain, obs Observer, fbset map[types.Hash]flashbots.BundleType, start, end uint64) *Inferrer {
	if fbset == nil {
		fbset = map[types.Hash]flashbots.BundleType{}
	}
	if start == 0 {
		start, _ = obs.Window()
	}
	if end == 0 {
		if h := c.Head(); h != nil {
			end = h.Header.Number
		}
	}
	return &Inferrer{Chain: c, Obs: obs, FBSet: fbset, WindowStart: start, WindowEnd: end}
}

// InWindow reports whether a block height falls in the analysis window.
func (in *Inferrer) InWindow(block uint64) bool {
	return block >= in.WindowStart && block <= in.WindowEnd
}

// IsPrivateTx reports whether a mined transaction was never observed in
// the public mempool (the §6.1 set-difference definition).
func (in *Inferrer) IsPrivateTx(h types.Hash) bool {
	return !in.Obs.Seen(h)
}

// ClassifyTxs classifies a group of extractor transactions:
// Flashbots if any appears in the public Flashbots dataset, private if all
// are unobserved, public otherwise.
func (in *Inferrer) ClassifyTxs(hashes ...types.Hash) Channel {
	for _, h := range hashes {
		if _, ok := in.FBSet[h]; ok {
			return ChannelFlashbots
		}
	}
	allPrivate := len(hashes) > 0
	for _, h := range hashes {
		if !in.IsPrivateTx(h) {
			allPrivate = false
			break
		}
	}
	if allPrivate {
		return ChannelPrivate
	}
	return ChannelPublic
}

// ClassifySandwich applies the §6.1 sandwich rule: the attacker's front
// and back transactions alone decide the channel (ClassifyTxs); the
// victim never does. The paper's private sandwich has a publicly observed
// victim, since frontrunning another pool's private transaction is not
// possible, but a sandwich whose victim went unobserved too still folds
// into private: all three may be one private pool's internal flow, and
// "unobserved" cannot tell a private victim from a public one every
// vantage missed. The second result is false outside the window.
func (in *Inferrer) ClassifySandwich(s detect.Sandwich) (Channel, bool) {
	if !in.InWindow(s.Block) {
		return ChannelPublic, false
	}
	return in.ClassifyTxs(s.FrontTx, s.BackTx), true
}

// SandwichSplit is the §6.2 accounting over the analysis window.
type SandwichSplit struct {
	Total     int
	Flashbots int
	Private   int // private, non-Flashbots
	Public    int
}

// FlashbotsShare is the fraction of sandwiches via Flashbots.
func (s SandwichSplit) FlashbotsShare() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.Flashbots) / float64(s.Total)
}

// PrivateShare is the fraction via non-Flashbots private pools.
func (s SandwichSplit) PrivateShare() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.Private) / float64(s.Total)
}

// PublicShare is the fraction carried out in the public mempool.
func (s SandwichSplit) PublicShare() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.Public) / float64(s.Total)
}

// verdict is one classification outcome, produced by a worker and reduced
// sequentially in input order.
type verdict struct {
	ch Channel
	ok bool
}

// sandwichVerdict applies the §6.1 sandwich rule to one detection.
func (in *Inferrer) sandwichVerdict(s detect.Sandwich) verdict {
	ch, ok := in.ClassifySandwich(s)
	return verdict{ch: ch, ok: ok}
}

// arbVerdict applies the plain transaction rule to one arbitrage.
func (in *Inferrer) arbVerdict(a detect.Arbitrage) verdict {
	if !in.InWindow(a.Block) {
		return verdict{}
	}
	return verdict{ch: in.ClassifyTxs(a.Tx), ok: true}
}

// liqVerdict applies the plain transaction rule to one liquidation.
func (in *Inferrer) liqVerdict(l detect.Liquidation) verdict {
	if !in.InWindow(l.Block) {
		return verdict{}
	}
	return verdict{ch: in.ClassifyTxs(l.Tx), ok: true}
}

// Feed classifies every detection appended to res since the previous Feed
// call, extending the incremental verdict logs. The streaming
// block-follower calls it after each fed block; a subsequent SplitAll /
// SplitSandwiches / LinkPrivateSandwiches over the same sweep then reuses
// the logged verdicts instead of reclassifying the whole history. res
// must be the same logically-growing sweep between calls (append-only,
// as detect.Scanner produces).
func (in *Inferrer) Feed(res *detect.Result) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for ; in.fedSand < len(res.Sandwiches); in.fedSand++ {
		in.sandLog = append(in.sandLog, in.sandwichVerdict(res.Sandwiches[in.fedSand]))
	}
	for ; in.fedArb < len(res.Arbitrages); in.fedArb++ {
		in.arbLog = append(in.arbLog, in.arbVerdict(res.Arbitrages[in.fedArb]))
	}
	for ; in.fedLiq < len(res.Liquidations); in.fedLiq++ {
		in.liqLog = append(in.liqLog, in.liqVerdict(res.Liquidations[in.fedLiq]))
	}
	// Record the fed slices' identities (appends may have reallocated the
	// backing arrays since the previous Feed).
	if len(res.Sandwiches) > 0 {
		in.fedSandKey = &res.Sandwiches[0]
	}
	if len(res.Arbitrages) > 0 {
		in.fedArbKey = &res.Arbitrages[0]
	}
	if len(res.Liquidations) > 0 {
		in.fedLiqKey = &res.Liquidations[0]
	}
}

// classifySandwiches fans the §6.1 sandwich rule across the worker pool,
// memoizing the verdicts per input slice. When the incremental Feed log
// already covers the whole slice the logged verdicts are returned
// directly — verdicts are stable, so both paths agree bit for bit. A
// cache miss under concurrent first calls may classify twice; the results
// are identical either way.
func (in *Inferrer) classifySandwiches(sandwiches []detect.Sandwich) []verdict {
	var key *detect.Sandwich
	if len(sandwiches) > 0 {
		key = &sandwiches[0]
	}
	in.mu.Lock()
	if in.fedSand > 0 && in.fedSand == len(sandwiches) && in.fedSandKey == key {
		v := in.sandLog
		in.mu.Unlock()
		return v
	}
	if in.cacheVerd != nil && in.cacheKey == key && in.cacheLen == len(sandwiches) {
		v := in.cacheVerd
		in.mu.Unlock()
		return v
	}
	in.mu.Unlock()
	sp := in.Span.Child(obspkg.StageInfer)
	sp.SetLabel("sandwiches")
	sp.SetTxs(len(sandwiches))
	v := parallel.MapSpan(sp, len(sandwiches), in.Workers, func(i int) verdict {
		return in.sandwichVerdict(sandwiches[i])
	})
	sp.End()
	in.mu.Lock()
	in.cacheKey, in.cacheLen, in.cacheVerd = key, len(sandwiches), v
	in.mu.Unlock()
	return v
}

// classifyArbs classifies arbitrages, reusing the Feed log when it covers
// the whole slice.
func (in *Inferrer) classifyArbs(arbs []detect.Arbitrage) []verdict {
	in.mu.Lock()
	if in.fedArb > 0 && in.fedArb == len(arbs) && in.fedArbKey == &arbs[0] {
		v := in.arbLog
		in.mu.Unlock()
		return v
	}
	in.mu.Unlock()
	sp := in.Span.Child(obspkg.StageInfer)
	sp.SetLabel("arbitrages")
	sp.SetTxs(len(arbs))
	defer sp.End()
	return parallel.MapSpan(sp, len(arbs), in.Workers, func(i int) verdict {
		return in.arbVerdict(arbs[i])
	})
}

// classifyLiqs classifies liquidations, reusing the Feed log when it
// covers the whole slice.
func (in *Inferrer) classifyLiqs(liqs []detect.Liquidation) []verdict {
	in.mu.Lock()
	if in.fedLiq > 0 && in.fedLiq == len(liqs) && in.fedLiqKey == &liqs[0] {
		v := in.liqLog
		in.mu.Unlock()
		return v
	}
	in.mu.Unlock()
	sp := in.Span.Child(obspkg.StageInfer)
	sp.SetLabel("liquidations")
	sp.SetTxs(len(liqs))
	defer sp.End()
	return parallel.MapSpan(sp, len(liqs), in.Workers, func(i int) verdict {
		return in.liqVerdict(liqs[i])
	})
}

// SplitSandwiches classifies every detected sandwich inside the window.
func (in *Inferrer) SplitSandwiches(sandwiches []detect.Sandwich) SandwichSplit {
	var out SandwichSplit
	for _, v := range in.classifySandwiches(sandwiches) {
		if !v.ok {
			continue
		}
		out.add(v.ch)
	}
	return out
}

// add counts one classified extraction.
func (s *SandwichSplit) add(ch Channel) {
	s.Total++
	switch ch {
	case ChannelFlashbots:
		s.Flashbots++
	case ChannelPrivate:
		s.Private++
	default:
		s.Public++
	}
}

// MinerLink aggregates, per extractor account, which miners mined its
// private non-Flashbots sandwiches — the §6.3 analysis.
type MinerLink struct {
	Account types.Address
	// Miners maps coinbase → count of this account's private sandwiches
	// it mined.
	Miners map[types.Address]int
	Total  int
}

// SingleMiner reports whether every private sandwich of the account was
// mined by one miner (the paper's signal for a miner-owned channel).
func (l MinerLink) SingleMiner() (types.Address, bool) {
	if len(l.Miners) != 1 {
		return types.Address{}, false
	}
	for m := range l.Miners {
		return m, true
	}
	return types.Address{}, false
}

// LinkPrivateSandwiches builds the account→miner map for private
// non-Flashbots sandwiches in the window.
func (in *Inferrer) LinkPrivateSandwiches(sandwiches []detect.Sandwich) []MinerLink {
	byAccount := map[types.Address]*MinerLink{}
	verdicts := in.classifySandwiches(sandwiches)
	for i, s := range sandwiches {
		if !verdicts[i].ok || verdicts[i].ch != ChannelPrivate {
			continue
		}
		blk, err := in.Chain.ByNumber(s.Block)
		if err != nil {
			continue
		}
		l := byAccount[s.Attacker]
		if l == nil {
			l = &MinerLink{Account: s.Attacker, Miners: map[types.Address]int{}}
			byAccount[s.Attacker] = l
		}
		l.Miners[blk.Header.Miner]++
		l.Total++
	}
	out := make([]MinerLink, 0, len(byAccount))
	for _, l := range byAccount {
		out = append(out, *l)
	}
	// Order by volume, tie-broken by account bytes so the ranking does not
	// depend on map iteration order.
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		a, b := out[i].Account, out[j].Account
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

// MEVSplit extends the §6 accounting to every MEV type: per-kind counts of
// public / Flashbots / private extraction inside the window (Figure 9's
// "Distribution of private vs. public MEV extraction").
type MEVSplit struct {
	// ByKind maps a kind label ("sandwich", "arbitrage", "liquidation")
	// to its channel counts.
	ByKind map[string]*SandwichSplit
}

// Totals sums every kind.
func (m MEVSplit) Totals() SandwichSplit {
	var out SandwichSplit
	for _, s := range m.ByKind {
		out.Total += s.Total
		out.Flashbots += s.Flashbots
		out.Private += s.Private
		out.Public += s.Public
	}
	return out
}

// SplitAll classifies every detected extraction in the window. Sandwiches
// use the §6.1 sandwich rule; single-transaction extractions use the plain
// transaction rule.
func (in *Inferrer) SplitAll(res *detect.Result) MEVSplit {
	out := MEVSplit{ByKind: map[string]*SandwichSplit{
		"sandwich":    {},
		"arbitrage":   {},
		"liquidation": {},
	}}
	for _, v := range in.classifySandwiches(res.Sandwiches) {
		if v.ok {
			out.ByKind["sandwich"].add(v.ch)
		}
	}
	for _, v := range in.classifyArbs(res.Arbitrages) {
		if v.ok {
			out.ByKind["arbitrage"].add(v.ch)
		}
	}
	for _, v := range in.classifyLiqs(res.Liquidations) {
		if v.ok {
			out.ByKind["liquidation"].add(v.ch)
		}
	}
	return out
}
