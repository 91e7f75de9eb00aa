package dataset

// View selection: which combination of the dataset's observation
// vantages the §6 private-transaction inference classifies against. The
// spec grammar is shared by mevscope.Options.View, the `?view=` query
// parameter of `mevscope serve` and the scenario registry:
//
//	""           the primary vantage (the paper's single observer)
//	"vantage:N"  vantage N alone
//	"union"      seen by any vantage
//	"quorum:K"   seen by at least K vantages

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"mevscope/internal/p2p"
)

// view specs.
const (
	viewUnion   = "union"
	viewQuorum  = "quorum"
	viewVantage = "vantage"
)

// parsedView is a decoded view spec.
type parsedView struct {
	kind string // "", viewUnion, viewQuorum or viewVantage
	n    int    // quorum K or vantage index
}

// parseView decodes a view spec, bounds-checking indices against the
// given vantage count (pass math.MaxInt to check syntax only).
func parseView(spec string, vantages int) (parsedView, error) {
	s := strings.ToLower(strings.TrimSpace(spec))
	switch {
	case s == "":
		return parsedView{}, nil
	case s == viewUnion:
		return parsedView{kind: viewUnion}, nil
	case strings.HasPrefix(s, viewQuorum+":"):
		k, err := strconv.Atoi(s[len(viewQuorum)+1:])
		if err != nil || k < 1 {
			return parsedView{}, fmt.Errorf("dataset: bad view %q (want quorum:K with K ≥ 1)", spec)
		}
		if k > vantages {
			return parsedView{}, fmt.Errorf("dataset: view %q needs %d vantages, the dataset has %d", spec, k, vantages)
		}
		return parsedView{kind: viewQuorum, n: k}, nil
	case strings.HasPrefix(s, viewVantage+":"):
		i, err := strconv.Atoi(s[len(viewVantage)+1:])
		if err != nil || i < 0 {
			return parsedView{}, fmt.Errorf("dataset: bad view %q (want vantage:N with N ≥ 0)", spec)
		}
		if i >= vantages {
			return parsedView{}, fmt.Errorf("dataset: view %q selects vantage %d, the dataset has vantages 0..%d", spec, i, vantages-1)
		}
		return parsedView{kind: viewVantage, n: i}, nil
	}
	return parsedView{}, fmt.Errorf("dataset: unknown view %q (want union, quorum:K or vantage:N)", spec)
}

// CheckView validates a view spec's syntax without a dataset at hand.
func CheckView(spec string) error {
	_, err := parseView(spec, math.MaxInt)
	return err
}

// CheckViewFor validates a view spec against a known vantage count —
// what `mevscope serve` runs before touching any data file, so a bad
// ?view= is a 400 with the real vantage range, not a failed analysis.
func CheckViewFor(spec string, vantages int) error {
	if vantages < 1 {
		vantages = 1
	}
	_, err := parseView(spec, vantages)
	return err
}

// ResolveView materializes the dataset's selected observation view over
// its vantage list (ResolveViewOf).
func (ds *Dataset) ResolveView() (p2p.RecordView, error) {
	return ResolveViewOf(ds.View, ds.VantageList())
}

// ResolveViewOf materializes view spec over an observation network's
// vantages, in configuration order — the one implementation of the view
// grammar, behind the inferrer of full builds and month-partial merges
// alike (measure.Inputs.Inferrer). It returns nil (and no error) when
// there are no vantages at all — the §6 sections are then skipped — but
// still validates the spec's syntax, so a typo is surfaced even on runs
// whose window never opened.
func ResolveViewOf(spec string, vs []*p2p.Observer) (p2p.RecordView, error) {
	if len(vs) == 0 {
		return nil, CheckView(spec)
	}
	pv, err := parseView(spec, len(vs))
	if err != nil {
		return nil, err
	}
	switch pv.kind {
	case viewUnion:
		return p2p.Union(vs...), nil
	case viewQuorum:
		return p2p.Quorum(pv.n, vs...), nil
	case viewVantage:
		return vs[pv.n], nil
	default:
		return vs[0], nil
	}
}
