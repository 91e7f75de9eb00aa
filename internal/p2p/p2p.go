// Package p2p simulates Ethereum's transaction gossip network and the
// study's measurement side: an observation network of one or more
// vantage points listening to the public mempool.
//
// A Network is a connected graph of nodes under a pluggable topology
// (ring, ring+random chords, small-world rewiring — the same cheap
// relay-topology modelling minesim uses for Bitcoin block propagation).
// Publicly submitted transactions enter at a random origin node and
// flood-fill to all peers. N configurable vantage points — the
// multi-source collector architecture of mempool-dumpster, where every
// source keeps its own first-seen log — record the pending transactions
// they see:
//
//   - each vantage sits at a configurable node position and sees a
//     transaction after a per-hop propagation delay (HopLatency × its BFS
//     distance from the origin);
//   - each vantage misses an independent, configurable fraction of the
//     public traffic entirely (mempool churn, races with inclusion),
//     matching the paper's assumption that their node saw "the vast
//     majority" but not all of it;
//   - each vantage can carry outage windows — block ranges during which
//     it records nothing (node crash, disk full, resync), the failure
//     mode that makes single-vantage studies fragile.
//
// Every vantage keeps a deterministic, seeded record log that depends
// only on the configuration: per-vantage miss draws come from dedicated
// rng streams, and the gossip origin of each transaction comes from its
// own split stream, so changing one vantage's miss rate, adding a
// vantage, or toggling an outage window never perturbs what any other
// vantage observes or where transactions originate. Vantage records can
// be combined into union and quorum-k views (views.go) — the robustness
// axis behind the "how sensitive is the §6 private/public split to where
// you listen" question.
//
// Private transactions never touch the network: Flashbots bundles and
// other private-pool submissions go directly to miners, which is exactly
// what makes them invisible to every vantage and detectable only by the
// set-difference inference in internal/core/privinfer.
package p2p

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"mevscope/internal/mempool"
	"mevscope/internal/types"
)

// Topology names a gossip graph shape.
type Topology string

// Supported topologies.
const (
	// TopologyRingChords is the default: a ring for connectivity plus
	// random chords up to the target degree (the historical graph).
	TopologyRingChords Topology = "ring-chords"
	// TopologyRing is a plain ring lattice: every node links to its
	// Degree/2 nearest neighbours on each side. High diameter, no
	// shortcuts — the worst case for propagation delay.
	TopologyRing Topology = "ring"
	// TopologySmallWorld is Watts-Strogatz rewiring: the ring lattice
	// with each forward edge rewired to a random node with probability
	// 0.1. Short paths with high clustering — closest to measured p2p
	// overlays.
	TopologySmallWorld Topology = "small-world"
)

// smallWorldBeta is the Watts-Strogatz rewiring probability.
const smallWorldBeta = 0.1

// ParseTopology parses a CLI-style topology name. The empty string
// selects the default ring-chords graph.
func ParseTopology(s string) (Topology, error) {
	switch Topology(s) {
	case "", TopologyRingChords:
		return TopologyRingChords, nil
	case TopologyRing:
		return TopologyRing, nil
	case TopologySmallWorld:
		return TopologySmallWorld, nil
	}
	return "", fmt.Errorf("p2p: unknown topology %q (want %s, %s or %s)",
		s, TopologyRingChords, TopologyRing, TopologySmallWorld)
}

// OutageWindow is a block range (inclusive) during which a vantage
// records nothing.
type OutageWindow struct {
	Start uint64 `json:"start"`
	Stop  uint64 `json:"stop"`
}

// contains reports whether the block falls inside the window.
func (w OutageWindow) contains(block uint64) bool {
	return block >= w.Start && block <= w.Stop
}

// VantageConfig places one observation vantage on the network.
type VantageConfig struct {
	// Node is the graph position the vantage listens at.
	Node int
	// MissRate is the probability this vantage never sees a given public
	// transaction.
	MissRate float64
	// Outages are block ranges during which the vantage records nothing.
	Outages []OutageWindow
}

// SpreadVantages places count vantages evenly around an nodes-node
// graph, all with the same miss rate — the standard multi-vantage
// layout behind `-vantages N` and the multi-vantage-union scenario.
func SpreadVantages(nodes, count int, missRate float64) []VantageConfig {
	if count < 1 {
		count = 1
	}
	out := make([]VantageConfig, count)
	for i := range out {
		out[i] = VantageConfig{Node: i * nodes / count, MissRate: missRate}
	}
	return out
}

// Config describes the gossip network and its observation vantages.
type Config struct {
	// Nodes is the network size (vantages included). Minimum 2.
	Nodes int
	// Degree is the target peer count per node.
	Degree int
	// Topology selects the graph shape; empty selects ring-chords.
	Topology Topology
	// HopLatency is the per-hop propagation delay.
	HopLatency time.Duration
	// ObserverMissRate is the miss rate of the default single vantage,
	// used when Vantages is empty.
	ObserverMissRate float64
	// Vantages places the observation vantages. Empty means one vantage
	// at node 0 with ObserverMissRate — the paper's single-observer
	// setup.
	Vantages []VantageConfig
	// Seed feeds the network's private RNG streams.
	Seed int64
}

// DefaultConfig is a small but structurally realistic network.
func DefaultConfig(seed int64) Config {
	return Config{Nodes: 200, Degree: 8, HopLatency: 80 * time.Millisecond, ObserverMissRate: 0.01, Seed: seed}
}

// vantageConfigs resolves the configured vantage list, defaulting to the
// single node-0 observer.
func (cfg Config) vantageConfigs() []VantageConfig {
	if len(cfg.Vantages) > 0 {
		return cfg.Vantages
	}
	return []VantageConfig{{Node: 0, MissRate: cfg.ObserverMissRate}}
}

// ObservedTx is one pending-transaction record captured by a vantage —
// the record shape the paper stored in MongoDB, one log per source like
// mempool-dumpster's per-collector first-seen files.
type ObservedTx struct {
	Hash types.Hash
	// FirstSeenBlock is the chain height at which the vantage first saw
	// the transaction.
	FirstSeenBlock uint64
	// FirstSeen is the wall-clock observation moment.
	FirstSeen time.Time
	// Hops is the gossip distance from the origin node to the vantage.
	Hops int
}

// Observer records pending transactions during its observation window —
// one vantage of the observation network.
type Observer struct {
	node     int
	missRate float64
	outages  []OutageWindow

	// legacy marks the primary vantage, whose miss stream reproduces the
	// original single-observer implementation draw for draw (see observe).
	legacy bool
	// rng is this vantage's private miss stream. Each vantage owns one,
	// so per-vantage miss rates are independent knobs.
	rng *rand.Rand
	// dist is the BFS hop distance from every node to this vantage.
	dist       []int
	hopLatency time.Duration

	active    bool
	startedAt uint64
	stoppedAt uint64
	records   map[types.Hash]ObservedTx
	order     []types.Hash
}

// Node returns the graph position the vantage listens at.
func (o *Observer) Node() int { return o.node }

// MissRate returns the vantage's configured miss probability.
func (o *Observer) MissRate() float64 { return o.missRate }

// Active reports whether the observer is currently recording.
func (o *Observer) Active() bool { return o.active }

// Seen reports whether the observer recorded the transaction.
func (o *Observer) Seen(h types.Hash) bool {
	_, ok := o.records[h]
	return ok
}

// Record returns the observation record for a transaction.
func (o *Observer) Record(h types.Hash) (ObservedTx, bool) {
	r, ok := o.records[h]
	return r, ok
}

// Records returns all observations in capture order.
func (o *Observer) Records() []ObservedTx {
	out := make([]ObservedTx, len(o.order))
	for i, h := range o.order {
		out[i] = o.records[h]
	}
	return out
}

// RecordsBetween returns the observations first seen in blocks [lo, hi]
// (inclusive), in capture order. The log is ordered by first-seen block
// — records append as blocks are observed, and restores concatenate
// logs in month order — so the span is found by binary search and only
// the returned records are copied, whatever the length of the history.
func (o *Observer) RecordsBetween(lo, hi uint64) []ObservedTx {
	i := sort.Search(len(o.order), func(i int) bool { return o.records[o.order[i]].FirstSeenBlock >= lo })
	j := sort.Search(len(o.order), func(j int) bool { return o.records[o.order[j]].FirstSeenBlock > hi })
	if j <= i {
		return nil
	}
	out := make([]ObservedTx, j-i)
	for k, h := range o.order[i:j] {
		out[k] = o.records[h]
	}
	return out
}

// Count is the number of recorded pending transactions.
func (o *Observer) Count() int { return len(o.records) }

// Window returns the observation start and stop heights (stop is zero
// while still active).
func (o *Observer) Window() (start, stop uint64) { return o.startedAt, o.stoppedAt }

// inOutage reports whether the vantage is dark at the given height.
func (o *Observer) inOutage(block uint64) bool {
	for _, w := range o.outages {
		if w.contains(block) {
			return true
		}
	}
	return false
}

// observe runs one vantage's capture decision for a broadcast. The miss
// draw is consumed whenever the vantage is active — outages gate only
// the recording — so toggling an outage window changes what is recorded
// during it, never the record stream after it.
func (o *Observer) observe(tx *types.Transaction, origin int, block uint64, at time.Time) bool {
	if !o.active {
		return false
	}
	if o.rng.Float64() < o.missRate {
		return false
	}
	if o.legacy {
		// Historical stream position: the original single-observer
		// implementation drew the gossip origin from this stream after a
		// passed miss check. Origins now come from the network's dedicated
		// origin stream (shared by every vantage, independent of miss
		// rates), but the draw is kept so existing seeds reproduce the
		// same *set* of observed transactions — the miss outcomes, which
		// the §6 inference and the golden report pin. Per-record Hops and
		// FirstSeen derive from the new origin stream and do differ from
		// pre-refactor runs.
		_ = o.rng.Intn(len(o.dist))
	}
	if o.inOutage(block) {
		return false
	}
	hops := o.dist[origin]
	if hops < 0 {
		return false // unreachable (cannot happen with a ring base graph)
	}
	h := tx.Hash()
	if _, dup := o.records[h]; dup {
		return false
	}
	o.records[h] = ObservedTx{
		Hash:           h,
		FirstSeenBlock: block,
		FirstSeen:      at.Add(time.Duration(hops) * o.hopLatency),
		Hops:           hops,
	}
	o.order = append(o.order, h)
	return true
}

// RestoreVantage rebuilds one vantage of the observation network from
// its persisted record log, window bounds and node position. Restored
// vantages never record; they only answer Seen/Record queries.
func RestoreVantage(node int, records []ObservedTx, start, stop uint64) *Observer {
	o := &Observer{
		node:      node,
		startedAt: start,
		stoppedAt: stop,
		records:   make(map[types.Hash]ObservedTx, len(records)),
		order:     make([]types.Hash, 0, len(records)),
	}
	for _, r := range records {
		if _, dup := o.records[r.Hash]; dup {
			continue
		}
		o.records[r.Hash] = r
		o.order = append(o.order, r.Hash)
	}
	return o
}

// Network is the gossip graph plus the public mempool it feeds and the
// observation vantages listening to it.
type Network struct {
	cfg   Config
	rng   *rand.Rand // graph build + the primary vantage's legacy miss stream
	peers [][]int    // adjacency lists
	pool  *mempool.Pool

	// originRng is the dedicated stream for gossip-origin draws: one draw
	// per admitted broadcast, unconditionally, so origins depend only on
	// the broadcast sequence — never on miss rates, outages, vantage
	// count or the observation window.
	originRng *rand.Rand

	vantages []*Observer
}

// New builds the network graph, its public mempool and the configured
// observation vantages.
func New(cfg Config) (*Network, error) {
	if cfg.Nodes < 2 {
		return nil, fmt.Errorf("p2p: need at least 2 nodes, got %d", cfg.Nodes)
	}
	if cfg.Degree < 1 {
		return nil, fmt.Errorf("p2p: need degree >= 1, got %d", cfg.Degree)
	}
	top, err := ParseTopology(string(cfg.Topology))
	if err != nil {
		return nil, err
	}
	vcs := cfg.vantageConfigs()
	for i, vc := range vcs {
		if vc.Node < 0 || vc.Node >= cfg.Nodes {
			return nil, fmt.Errorf("p2p: vantage %d at node %d outside the %d-node network", i, vc.Node, cfg.Nodes)
		}
		if vc.MissRate < 0 || vc.MissRate >= 1 {
			return nil, fmt.Errorf("p2p: vantage %d miss rate %v outside [0, 1)", i, vc.MissRate)
		}
	}
	n := &Network{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		pool:      mempool.New(),
		originRng: rand.New(rand.NewSource(cfg.Seed ^ originStreamSalt)),
	}
	n.buildGraph(top)
	for i, vc := range vcs {
		v := &Observer{
			node:       vc.Node,
			missRate:   vc.MissRate,
			outages:    append([]OutageWindow(nil), vc.Outages...),
			hopLatency: cfg.HopLatency,
			dist:       n.bfsFrom(vc.Node),
			records:    make(map[types.Hash]ObservedTx),
		}
		if i == 0 {
			// The primary vantage shares the network's main rng with the
			// historical draw pattern, so single-vantage runs reproduce the
			// original observer's record log seed for seed.
			v.legacy = true
			v.rng = n.rng
		} else {
			v.rng = rand.New(rand.NewSource(vantageStreamSeed(cfg.Seed, i)))
		}
		n.vantages = append(n.vantages, v)
	}
	return n, nil
}

// Stream salts: each rng stream of the network is derived from the
// configured seed so streams never alias each other.
const originStreamSalt = 0x6f72_6967_696e // "origin"

// vantageStreamSeed derives the private miss-stream seed of vantage i
// (i ≥ 1; vantage 0 uses the network's main rng).
func vantageStreamSeed(seed int64, i int) int64 {
	const golden = int64(-0x61C8_8646_80B5_83EB) // 2^64 / φ, as a signed word
	return seed + int64(i+1)*golden
}

// buildGraph wires the configured topology. Every topology keeps the
// base ring, so the graph is always connected.
func (n *Network) buildGraph(top Topology) {
	nodes := n.cfg.Nodes
	n.peers = make([][]int, nodes)
	addEdge := func(a, b int) {
		if a == b {
			return
		}
		for _, p := range n.peers[a] {
			if p == b {
				return
			}
		}
		n.peers[a] = append(n.peers[a], b)
		n.peers[b] = append(n.peers[b], a)
	}
	switch top {
	case TopologyRing, TopologySmallWorld:
		// Ring lattice: Degree/2 nearest neighbours on each side.
		side := n.cfg.Degree / 2
		if side < 1 {
			side = 1
		}
		for i := 0; i < nodes; i++ {
			for d := 1; d <= side; d++ {
				addEdge(i, (i+d)%nodes)
			}
		}
		if top == TopologySmallWorld {
			// Watts-Strogatz: rewire each forward lattice edge beyond the
			// base ring with probability beta. The d=1 ring edges stay, so
			// connectivity is preserved.
			for i := 0; i < nodes; i++ {
				for d := 2; d <= side; d++ {
					if n.rng.Float64() >= smallWorldBeta {
						continue
					}
					target := n.rng.Intn(nodes)
					n.dropEdge(i, (i+d)%nodes)
					addEdge(i, target)
				}
			}
		}
	default: // ring-chords
		for i := 0; i < nodes; i++ {
			addEdge(i, (i+1)%nodes)
		}
		for i := 0; i < nodes; i++ {
			for len(n.peers[i]) < n.cfg.Degree {
				addEdge(i, n.rng.Intn(nodes))
			}
		}
	}
}

// dropEdge removes an undirected edge if present.
func (n *Network) dropEdge(a, b int) {
	drop := func(from, to int) {
		for i, p := range n.peers[from] {
			if p == to {
				n.peers[from] = append(n.peers[from][:i], n.peers[from][i+1:]...)
				return
			}
		}
	}
	drop(a, b)
	drop(b, a)
}

// bfsFrom computes hop distances from every node to the given root.
func (n *Network) bfsFrom(root int) []int {
	dist := make([]int, n.cfg.Nodes)
	for i := range dist {
		dist[i] = -1
	}
	dist[root] = 0
	queue := []int{root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range n.peers[v] {
			if dist[w] == -1 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// Pool returns the canonical public mempool fed by this network.
func (n *Network) Pool() *mempool.Pool { return n.pool }

// Observer returns the primary measurement vantage (the paper's single
// observer).
func (n *Network) Observer() *Observer { return n.vantages[0] }

// Vantages returns every observation vantage in configuration order.
// Callers must not mutate the slice.
func (n *Network) Vantages() []*Observer { return n.vantages }

// StartObservation begins recording pending transactions at the given
// chain height (the paper's Nov 8th, 2021 moment) on every vantage.
func (n *Network) StartObservation(block uint64) {
	for _, v := range n.vantages {
		v.active = true
		v.startedAt = block
	}
}

// StopObservation ends the recording window on every vantage.
func (n *Network) StopObservation(block uint64) {
	for _, v := range n.vantages {
		v.active = false
		v.stoppedAt = block
	}
}

// Broadcast gossips a transaction from a random origin node at the given
// height. It reports whether the transaction was admitted to the public
// mempool (false for duplicates) and whether at least one vantage
// captured it — distinct outcomes: an admitted transaction can still go
// unobserved (window closed, miss draw, outage), and callers that used
// to conflate the two now see each.
func (n *Network) Broadcast(tx *types.Transaction, block uint64, at time.Time) (admitted, observed bool) {
	if !n.pool.Add(tx) {
		return false, false
	}
	origin := n.originRng.Intn(n.cfg.Nodes)
	for _, v := range n.vantages {
		if v.observe(tx, origin, block, at) {
			observed = true
		}
	}
	return true, observed
}

// Diameter returns the maximum hop distance to the primary vantage, a
// sanity metric for the generated topology.
func (n *Network) Diameter() int {
	d := 0
	for _, v := range n.vantages[0].dist {
		if v > d {
			d = v
		}
	}
	return d
}

// PeerCount returns the degree of one node.
func (n *Network) PeerCount(node int) int {
	if node < 0 || node >= len(n.peers) {
		return 0
	}
	return len(n.peers[node])
}

// Nodes returns the network size.
func (n *Network) Nodes() int { return n.cfg.Nodes }
