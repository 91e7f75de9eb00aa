package p2p

// Views combine the per-vantage record logs of an observation network
// into composite observers. The §6 private-transaction inference runs
// against any RecordView, so the same world can be classified from one
// vantage, from the union of all of them, or from a quorum — the
// sensitivity axis the vantage_sensitivity artifact measures.

import (
	"bytes"
	"sort"

	"mevscope/internal/types"
)

// RecordView is the read contract every observation view satisfies: a
// single vantage (*Observer) or a composite (*View). It is a superset of
// the privinfer.Observer interface, so any view can drive the §6
// inference.
type RecordView interface {
	// Seen reports whether the view observed the transaction pending.
	Seen(h types.Hash) bool
	// Window returns the observation start and stop heights.
	Window() (start, stop uint64)
	// Count is the number of distinct transactions the view observed.
	Count() int
}

// View is a composite over vantage record logs: a transaction is seen
// when at least k vantages recorded it. k = 1 is the union view; k =
// len(vantages) is full agreement.
type View struct {
	k  int
	vs []*Observer
}

// Union builds the k=1 composite: seen by any vantage.
func Union(vs ...*Observer) *View { return Quorum(1, vs...) }

// Quorum builds the quorum-k composite: seen by at least k vantages.
// k is clamped to at least 1; a k above len(vs) is legal and sees
// nothing.
func Quorum(k int, vs ...*Observer) *View {
	if k < 1 {
		k = 1
	}
	return &View{k: k, vs: vs}
}

// K returns the quorum threshold.
func (v *View) K() int { return v.k }

// Vantages returns the underlying vantage list.
func (v *View) Vantages() []*Observer { return v.vs }

// Seen reports whether at least k vantages recorded the transaction.
func (v *View) Seen(h types.Hash) bool {
	seen := 0
	for _, o := range v.vs {
		if o.Seen(h) {
			seen++
			if seen >= v.k {
				return true
			}
		}
	}
	return false
}

// Window returns the composite observation window: the earliest start
// among started vantages and the latest stop — zero while any started
// vantage is still recording, mirroring the single-observer contract.
func (v *View) Window() (start, stop uint64) {
	open := false
	for _, o := range v.vs {
		s, e := o.Window()
		if s == 0 && o.Count() == 0 {
			continue // never started
		}
		if start == 0 || s < start {
			start = s
		}
		if e == 0 {
			open = true
		} else if e > stop {
			stop = e
		}
	}
	if open {
		return start, 0
	}
	return start, stop
}

// Count is the number of distinct transactions meeting the quorum.
func (v *View) Count() int {
	counts := map[types.Hash]int{}
	n := 0
	for _, o := range v.vs {
		for _, h := range o.order {
			counts[h]++
			if counts[h] == v.k {
				n++
			}
		}
	}
	return n
}

// Materialize flattens the composite into a standalone Observer holding
// one merged record log: every transaction meeting the quorum, carrying
// its earliest observation across vantages, ordered by first-seen block
// (ties broken by hash bytes) so the result is deterministic regardless
// of vantage count or order.
func (v *View) Materialize() *Observer {
	counts := map[types.Hash]int{}
	best := map[types.Hash]ObservedTx{}
	for _, o := range v.vs {
		for _, h := range o.order {
			r := o.records[h]
			counts[h]++
			cur, ok := best[h]
			if !ok || r.FirstSeenBlock < cur.FirstSeenBlock ||
				(r.FirstSeenBlock == cur.FirstSeenBlock && r.FirstSeen.Before(cur.FirstSeen)) {
				best[h] = r
			}
		}
	}
	records := make([]ObservedTx, 0, len(best))
	for h, c := range counts {
		if c >= v.k {
			records = append(records, best[h])
		}
	}
	sort.Slice(records, func(i, j int) bool {
		if records[i].FirstSeenBlock != records[j].FirstSeenBlock {
			return records[i].FirstSeenBlock < records[j].FirstSeenBlock
		}
		return bytes.Compare(records[i].Hash[:], records[j].Hash[:]) < 0
	})
	start, stop := v.Window()
	return RestoreVantage(0, records, start, stop)
}

// Coverage is an observation network's first-occurrence table: for
// every study month, how many distinct transactions each vantage — and
// the union of all of them — saw for the first time in that month. What
// the network had seen by the end of any month is a prefix sum of the
// table, so one table built from the logs through a late month answers
// coverage questions for every earlier month exactly, provided every
// record is filed under its first-seen month (dataset.Partition's
// layout, which archive.RestoreShared checks).
type Coverage struct {
	// Vantages[i][m] counts vantage i's records first seen in month m.
	Vantages [][types.StudyMonths]int
	// Union[m] counts distinct transactions whose earliest sighting
	// across all vantages falls in month m — the attribution
	// View.Materialize gives a union record.
	Union [types.StudyMonths]int
}

// NewCoverage tabulates the vantages' logs, mapping first-seen blocks to
// study months with tl (pass an unanchored timeline to keep every month
// apart; see types.Timeline.Unanchored).
func NewCoverage(tl types.Timeline, vs ...*Observer) *Coverage {
	c := &Coverage{Vantages: make([][types.StudyMonths]int, len(vs))}
	for i, o := range vs {
		for _, h := range o.order {
			c.Vantages[i][tl.MonthOfBlock(o.records[h].FirstSeenBlock)]++
		}
	}
	if len(vs) == 1 {
		c.Union = c.Vantages[0]
		return c
	}
	// A transaction's earliest sighting is the minimum first-seen month
	// over the vantages that recorded it: month order follows block order.
	first := make(map[types.Hash]types.Month)
	for _, o := range vs {
		for _, h := range o.order {
			m := tl.MonthOfBlock(o.records[h].FirstSeenBlock)
			if cur, ok := first[h]; !ok || m < cur {
				first[h] = m
			}
		}
	}
	for _, m := range first {
		c.Union[m]++
	}
	return c
}
