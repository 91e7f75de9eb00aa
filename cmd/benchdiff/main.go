// Command benchdiff is the speed gate: it compares perfbench runs of a
// base commit and of a change at BENCHMARK.json's end-to-end bounds.
//
//	benchdiff -spec BENCHMARK.json -base base.jsonl -change change.jsonl
//
// A results file holds one run per line, the last stdout line of `bash
// perfbench/run.sh --trace 0`. A metric fails when the change's median
// is worse than the base's by more than its bound, in its `better`
// direction; so does a change run that is not correct or has failed
// outputs. A spec metric missing from a run is an error, not a skip.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

type spec struct {
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
}

type result struct {
	Correct bool
	Failed  int
	Metrics map[string]struct{ Value float64 }
}

func main() {
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark spec: end-to-end metrics, directions and bounds")
	base := flag.String("base", "", "the base commit's perfbench result lines")
	change := flag.String("change", "", "the change's perfbench result lines")
	flag.Parse()
	fails, err := compare(os.Stdout, *specPath, *base, *change)
	if err != nil {
		fails = append(fails, err.Error())
	}
	for _, f := range fails {
		fmt.Println("benchdiff: FAIL:", f)
	}
	if len(fails) > 0 {
		os.Exit(1)
	}
}

// compare prints one row per end-to-end metric to w (each side's median
// and range, the relative change of the medians, the verdict) and
// returns every reason the change fails.
func compare(w io.Writer, specPath, basePath, changePath string) ([]string, error) {
	specs, errS := decode[spec](specPath)
	base, errB := decode[result](basePath)
	change, errC := decode[result](changePath)
	if err := errors.Join(errS, errB, errC); err != nil {
		return nil, err
	}
	if len(specs) != 1 || len(specs[0].EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: want one object listing end_to_end metrics", specPath)
	}
	var fails []string
	for i, r := range change {
		if !r.Correct || r.Failed > 0 {
			fails = append(fails, fmt.Sprintf("change run %d: correct %v, failed %d", i+1, r.Correct, r.Failed))
		}
	}
	for _, m := range specs[0].EndToEnd {
		if m.Better != "lower" && m.Better != "higher" || !(m.Bound >= 0) {
			return nil, fmt.Errorf("%s: metric %s has better %q and bound %v", specPath, m.Name, m.Better, m.Bound)
		}
		var sides [2][]float64 // sorted base and change values
		for s, runs := range [2][]result{base, change} {
			for i, r := range runs {
				v, ok := r.Metrics[m.Name]
				if !ok {
					return nil, fmt.Errorf("%s: run %d has no metric %s", []string{basePath, changePath}[s], i+1, m.Name)
				}
				sides[s] = append(sides[s], v.Value)
			}
			sort.Float64s(sides[s])
		}
		b, c := median(sides[0]), median(sides[1])
		rel := 0.0 // from a zero base, any change is infinite
		if c != b {
			rel = (c - b) / math.Abs(b)
		}
		verdict := "ok"
		if m.Better == "lower" && rel > m.Bound || m.Better == "higher" && -rel > m.Bound {
			verdict = fmt.Sprintf("WORSE beyond its %g bound (%s is better)", m.Bound, m.Better)
			fails = append(fails, fmt.Sprintf("%s %+.1f%%: %s", m.Name, 100*rel, verdict))
		}
		fmt.Fprintf(w, "%-22s %-8s base %-26s change %-26s %+8.1f%%  %s\n", m.Name, m.Unit, spread(sides[0]), spread(sides[1]), 100*rel, verdict)
	}
	return fails, nil
}

// decode reads every JSON value in path; a file with none is an error.
func decode[T any](path string) ([]T, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []T
	for dec := json.NewDecoder(f); ; {
		var v T
		if err := dec.Decode(&v); err == io.EOF && len(out) > 0 {
			return out, nil
		} else if err == io.EOF {
			return nil, fmt.Errorf("%s is empty", path)
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, v)
	}
}

// median of sorted values.
func median(xs []float64) float64 { return (xs[(len(xs)-1)/2] + xs[len(xs)/2]) / 2 }

// spread renders sorted values as their median and range.
func spread(xs []float64) string {
	return fmt.Sprintf("%.4g [%.4g–%.4g]", median(xs), xs[0], xs[len(xs)-1])
}
