package measure

// Vantage sensitivity: the observation-network robustness analysis. The
// paper's §6 private/public split hinges on what a single mempool
// vantage saw; with N vantages recording independently, the same world
// can be classified from each vantage alone and from their union, which
// bounds how much of the "private" mass is really just blind spots of
// one collector. Rows cover observation coverage month by month and
// vantage by vantage; scalars carry the per-vantage private counts and
// the union-vs-single deltas.

import (
	"mevscope/internal/core/privinfer"
	"mevscope/internal/p2p"
	"mevscope/internal/types"
)

// VantageStat summarizes one observation view's take on the world.
type VantageStat struct {
	// Vantage is the index in the network's vantage list; -1 marks the
	// union view.
	Vantage int
	// Node is the graph position the vantage listens at (0 for union).
	Node int
	// Observed is the number of distinct pending transactions recorded.
	Observed int
	// PrivateSandwiches counts window sandwiches the §6.1 rule classifies
	// private (non-Flashbots) against this view alone.
	PrivateSandwiches int
	// PerMonth maps study months to the view's distinct observation
	// counts.
	PerMonth map[types.Month]int
}

// VantageSensitivity is the full analysis: one row per real vantage plus
// the union view.
type VantageSensitivity struct {
	// View is the observation view the main report classified against.
	View string
	// Vantages holds per-vantage stats in configuration order.
	Vantages []VantageStat
	// Union is the k=1 composite over every vantage.
	Union VantageStat
}

// Months returns the ascending study months covered by any view.
func (v VantageSensitivity) Months() []types.Month {
	var out []types.Month
	for m := types.Month(0); m < types.StudyMonths; m++ {
		if v.Union.PerMonth[m] > 0 {
			out = append(out, m)
			continue
		}
		for _, vs := range v.Vantages {
			if vs.PerMonth[m] > 0 {
				out = append(out, m)
				break
			}
		}
	}
	return out
}

// coverage is the first-occurrence table of the inputs' network:
// in.Coverage, or one tabulated from in.Vantages under the unanchored
// timeline.
func coverage(in Inputs) *p2p.Coverage {
	if in.Coverage != nil && len(in.Coverage.Vantages) == len(in.Vantages) {
		return in.Coverage
	}
	return p2p.NewCoverage(in.Chain.Timeline.Unanchored(), in.Vantages...)
}

// BuildVantageSensitivity classifies the window sandwiches against every
// vantage alone and against the union view. Zero-valued without
// vantages (runs whose observation window never opened).
//
// Coverage (Observed, PerMonth) is the network's first-occurrence table
// (coverage) summed through the chain head's month, with earlier months
// folded into the timeline's first month the way it maps observations
// recorded before it. Full builds and month-partial merges both read
// coverage this way; the prefix sum keeps a build exact when its network
// runs past the head, and a merge exact though its vantages hold only
// the records a verdict reads.
func BuildVantageSensitivity(in Inputs) VantageSensitivity {
	out := VantageSensitivity{View: in.View}
	if len(in.Vantages) == 0 || in.Chain == nil || in.Chain.Head() == nil || in.Detect == nil {
		return out
	}
	head := in.Chain.Head().Header.Number
	tl := in.Chain.Timeline
	winStart := tl.FirstBlockOfMonth(types.PrivateWindowStartMonth)
	cov := coverage(in)
	from, through := tl.FirstMonth, tl.MonthOfBlock(head)
	stat := func(index, node int, view privinfer.Observer, row *[types.StudyMonths]int) VantageStat {
		inf := privinfer.New(in.Chain, view, in.FBSet, winStart, head)
		private := 0
		for _, s := range in.Detect.Sandwiches {
			if ch, ok := inf.ClassifySandwich(s); ok && ch == privinfer.ChannelPrivate {
				private++
			}
		}
		st := VantageStat{Vantage: index, Node: node, PrivateSandwiches: private, PerMonth: map[types.Month]int{}}
		for m := types.Month(0); m <= through; m++ {
			if n := row[m]; n > 0 {
				st.Observed += n
				st.PerMonth[max(m, from)] += n
			}
		}
		return st
	}
	for i, v := range in.Vantages {
		out.Vantages = append(out.Vantages, stat(i, v.Node(), v, &cov.Vantages[i]))
	}
	if len(in.Vantages) == 1 {
		// A one-vantage union is the vantage itself: skip the third
		// classification sweep on the default single-observer path.
		out.Union = out.Vantages[0]
		out.Union.Vantage, out.Union.Node = -1, 0
		return out
	}
	out.Union = stat(-1, 0, p2p.Union(in.Vantages...), &cov.Union)
	return out
}
