package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testSpec is a small BENCHMARK.json: two lower-is-better metrics with
// different bounds and one higher-is-better.
const testSpec = `{
  "workloads": [{"name": "w"}],
  "end_to_end": [
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "disk_bytes_per_block", "unit": "B/block", "better": "lower", "bound": 0.05}
  ],
  "per_layer": [{"name": "sim.run_s", "unit": "s", "better": "lower"}]
}`

// line is one synthetic perfbench result line.
func line(correct bool, failed int, p50, tput, disk float64) string {
	return fmt.Sprintf(`{"correct":%v,"attempted":10,"failed":%d,"metrics":{`+
		`"latency_p50_ms":{"value":%g,"unit":"ms"},"throughput_per_s":{"value":%g,"unit":"1/s"},`+
		`"disk_bytes_per_block":{"value":%g,"unit":"B/block"}}}`, correct, failed, p50, tput, disk)
}

// good is a correct run.
func good(p50, tput, disk float64) string { return line(true, 0, p50, tput, disk) }

// files writes the spec and each side's result lines, one run per line,
// and returns their paths.
func files(t *testing.T, spec string, base, change []string) (string, string, string) {
	t.Helper()
	dir := t.TempDir()
	var paths [3]string
	for i, body := range []string{spec, strings.Join(base, "\n") + "\n", strings.Join(change, "\n") + "\n"} {
		paths[i] = filepath.Join(dir, fmt.Sprint(i))
		if err := os.WriteFile(paths[i], []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return paths[0], paths[1], paths[2]
}

// verdicts runs compare over the test spec and returns which metrics'
// rows read WORSE and every failure reason.
func verdicts(t *testing.T, base, change []string) (map[string]bool, []string) {
	t.Helper()
	var out bytes.Buffer
	specPath, basePath, changePath := files(t, testSpec, base, change)
	fails, err := compare(&out, specPath, basePath, changePath)
	if err != nil {
		t.Fatal(err)
	}
	worse := map[string]bool{}
	rows := strings.Split(strings.TrimSpace(out.String()), "\n")
	for _, row := range rows {
		worse[strings.Fields(row)[0]] = strings.Contains(row, "WORSE")
	}
	if len(rows) != 3 {
		t.Errorf("printed %d rows, want one per end-to-end metric:\n%s", len(rows), out.String())
	}
	return worse, fails
}

// TestCompare: the verdict rules on medians of three runs. A
// lower-is-better metric worse beyond its bound fails and one within it
// passes; a throughput drop beyond its bound fails and a rise passes;
// one outlying run of three moves no verdict; an incorrect change run,
// or one with failed outputs, fails the change whatever its metrics.
func TestCompare(t *testing.T) {
	base := []string{good(10, 300, 1000), good(11, 300, 1000), good(12, 300, 1000)}
	for _, tc := range []struct {
		name   string
		change []string
		worse  string // the one metric that must read WORSE, or ""
		fail   string // what the one failure reason must say, or ""
	}{
		{"latency beyond its bound fails (11 → 14.5 ms, +32%)",
			[]string{good(14, 300, 1000), good(14.5, 300, 1000), good(15, 300, 1000)}, "latency_p50_ms", "latency_p50_ms +31.8%"},
		{"latency within its bound passes (11 → 13 ms, +18%)",
			[]string{good(12, 300, 1000), good(13, 300, 1000), good(13.5, 300, 1000)}, "", ""},
		{"latency drop passes",
			[]string{good(2, 300, 1000), good(3, 300, 1000), good(4, 300, 1000)}, "", ""},
		{"disk beyond its tighter bound fails (+6% against 5%)",
			[]string{good(11, 300, 1060), good(11, 300, 1060), good(11, 300, 1060)}, "disk_bytes_per_block", "disk_bytes_per_block +6.0%"},
		{"throughput drop beyond its bound fails (300 → 200/s)",
			[]string{good(11, 100, 1000), good(11, 200, 1000), good(11, 210, 1000)}, "throughput_per_s", "throughput_per_s -33.3%"},
		{"throughput rise passes",
			[]string{good(11, 600, 1000), good(11, 650, 1000), good(11, 700, 1000)}, "", ""},
		{"one outlier of three moves no verdict (3× latency, throughput at the 100/s floor)",
			[]string{good(11, 300, 1000), good(33, 100, 1000), good(11.5, 300, 1000)}, "", ""},
		{"incorrect change run fails",
			[]string{good(11, 300, 1000), line(false, 0, 11, 300, 1000), good(11, 300, 1000)}, "", "change run 2: correct false, failed 0"},
		{"change run with failed outputs fails",
			[]string{good(11, 300, 1000), good(11, 300, 1000), line(true, 3, 11, 300, 1000)}, "", "change run 3: correct true, failed 3"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			worse, fails := verdicts(t, base, tc.change)
			for name, w := range worse {
				if w != (name == tc.worse) {
					t.Errorf("%s: WORSE = %v", name, w)
				}
			}
			if tc.fail == "" && len(fails) > 0 || tc.fail != "" && (len(fails) != 1 || !strings.Contains(fails[0], tc.fail)) {
				t.Errorf("failures %q; want %q", fails, tc.fail)
			}
		})
	}
	// An outlier on the base side cannot hide a regression either.
	slowBase := []string{good(10, 300, 1000), good(33, 300, 1000), good(11, 300, 1000)}
	if worse, _ := verdicts(t, slowBase, []string{good(14, 300, 1000), good(15, 300, 1000), good(16, 300, 1000)}); !worse["latency_p50_ms"] {
		t.Error("one outlying base run hid a +36% regression")
	}
	// The base's correctness is not the change's to answer for.
	if _, fails := verdicts(t, []string{line(false, 2, 11, 300, 1000)}, []string{good(11, 300, 1000)}); len(fails) != 0 {
		t.Errorf("an incorrect base run failed the change: %q", fails)
	}
}

// TestCompareBoundary pins the bound's edges on medians: exactly at the
// bound passes and just past it fails, in both directions.
func TestCompareBoundary(t *testing.T) {
	base := []string{good(100, 400, 1000)}
	for _, tc := range []struct {
		name   string
		change string
		metric string
		worse  bool
	}{
		{"latency at +25%", good(125, 400, 1000), "latency_p50_ms", false},
		{"latency at +25.1%", good(125.1, 400, 1000), "latency_p50_ms", true},
		{"throughput at −25%", good(100, 300, 1000), "throughput_per_s", false},
		{"throughput at −25.25%", good(100, 299, 1000), "throughput_per_s", true},
		{"disk at +5%", good(100, 400, 1050), "disk_bytes_per_block", false},
		{"disk at +5.1%", good(100, 400, 1051), "disk_bytes_per_block", true},
	} {
		worse, _ := verdicts(t, base, []string{tc.change})
		if worse[tc.metric] != tc.worse {
			t.Errorf("%s: WORSE = %v, want %v", tc.name, worse[tc.metric], tc.worse)
		}
	}
	// Even counts take the mean of the middle two.
	if m := median([]float64{1, 2, 4, 100}); m != 3 {
		t.Errorf("median of 1, 2, 4, 100 = %v, want 3", m)
	}
}

// TestLoad: what the gate cannot compare is an error, never a skip: a
// spec end-to-end metric missing from a run on either side, a results
// file that is missing, empty or holds a line that is not JSON, and a
// spec with no end-to-end metrics or a direction or bound it cannot
// judge by.
func TestLoad(t *testing.T) {
	full := good(1, 2, 3)
	missing := `{"correct":true,"failed":0,"metrics":{"latency_p50_ms":{"value":1},"throughput_per_s":{"value":2}}}`
	for _, tc := range []struct {
		name, spec   string
		base, change []string
		want         string
	}{
		{"metric missing from a change run", testSpec, []string{full}, []string{full, missing}, "2: run 2 has no metric disk_bytes_per_block"},
		{"metric missing from a base run", testSpec, []string{missing}, []string{full}, "1: run 1 has no metric disk_bytes_per_block"},
		{"empty results", testSpec, []string{full}, []string{""}, "2 is empty"},
		{"junk line", testSpec, []string{full, "not json"}, []string{full}, "1: invalid character"},
		{"no end-to-end metrics", `{"end_to_end": []}`, []string{full}, []string{full}, "want one object listing end_to_end metrics"},
		{"unknown direction", `{"end_to_end": [{"name": "latency_p50_ms", "better": "faster", "bound": 0.1}]}`,
			[]string{full}, []string{full}, `metric latency_p50_ms has better "faster"`},
		{"negative bound", `{"end_to_end": [{"name": "latency_p50_ms", "better": "lower", "bound": -1}]}`,
			[]string{full}, []string{full}, "bound -1"},
		{"junk spec", `not json`, []string{full}, []string{full}, "0: invalid character"},
	} {
		specPath, basePath, changePath := files(t, tc.spec, tc.base, tc.change)
		if _, err := compare(&bytes.Buffer{}, specPath, basePath, changePath); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
	specPath, basePath, _ := files(t, testSpec, []string{full}, []string{full})
	if _, err := compare(&bytes.Buffer{}, specPath, basePath, filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Error("a missing results file was accepted")
	}
}
