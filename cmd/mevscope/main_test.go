package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mevscope"
	"mevscope/internal/archive"
	"mevscope/internal/core/measure"
	"mevscope/internal/dataset"
	"mevscope/internal/query"
	"mevscope/internal/scenario"
	"mevscope/internal/sim"
	"mevscope/internal/types"
)

// TestCheckScenarioRejectsTypos: a mistyped -scenario must error before
// any simulation work, and the error must list every valid name so the
// user can fix the typo without reading source.
func TestCheckScenarioRejectsTypos(t *testing.T) {
	for _, bad := range []string{"no-flashbot", "baselin", "hashpower", "POST_LONDON"} {
		err := checkScenario(bad)
		if err == nil {
			t.Errorf("scenario %q accepted; want rejection", bad)
			continue
		}
		for _, name := range scenario.Names() {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("error for %q does not list valid scenario %q: %v", bad, name, err)
			}
		}
	}
}

// TestCheckScenarioAcceptsValidNames: every registered name (any case)
// and the empty default pass.
func TestCheckScenarioAcceptsValidNames(t *testing.T) {
	for _, good := range append(scenario.Names(), "", "BASELINE", "No-Flashbots") {
		if err := checkScenario(good); err != nil {
			t.Errorf("scenario %q rejected: %v", good, err)
		}
	}
}

// TestCheckSection: every artifact name of the report model (any case),
// "all" and the "private" alias pass -section's up-front check, each
// resolving to the name printSection renders; a typo is rejected with
// every valid name listed.
func TestCheckSection(t *testing.T) {
	good := map[string]string{"all": "all", "ALL": "all", "private": "private_links", "Fig3": "fig3"}
	for _, name := range measure.ArtifactNames() {
		good[name] = name
	}
	for in, want := range good {
		got, err := checkSection(in)
		if err != nil || got != want {
			t.Errorf("checkSection(%q) = (%q, %v), want (%q, nil)", in, got, err, want)
		}
	}
	for _, bad := range []string{"fig33", "privat", "table 1", ""} {
		_, err := checkSection(bad)
		if err == nil {
			t.Errorf("section %q accepted; want rejection", bad)
			continue
		}
		for _, name := range measure.ArtifactNames() {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("error for %q does not list valid section %q: %v", bad, name, err)
			}
		}
	}
}

// TestCheckEnsemble: -seeds prints only its mean ± stddev summary, so
// every section but "all" and any -csv directory are usage errors naming
// what -seeds prints.
func TestCheckEnsemble(t *testing.T) {
	if err := checkEnsemble("all", ""); err != nil {
		t.Errorf("checkEnsemble(all, no csv) = %v, want nil", err)
	}
	for _, tc := range []struct{ section, csv string }{
		{"fig9", ""},
		{"table1", ""},
		{"private_links", ""},
		{"all", "out"},
		{"fig3", "out"},
	} {
		err := checkEnsemble(tc.section, tc.csv)
		if err == nil {
			t.Errorf("-seeds with -section %s -csv %q accepted; want rejection", tc.section, tc.csv)
			continue
		}
		if !strings.Contains(err.Error(), "-seeds prints the ensemble's mean ± stddev summary") {
			t.Errorf("-section %s -csv %q: error does not say what -seeds prints: %v", tc.section, tc.csv, err)
		}
	}
}

// TestParseSeeds: a seed list parses in order; a repeated seed is an
// error naming it, like any other malformed list.
func TestParseSeeds(t *testing.T) {
	got, err := parseSeeds(" 3, 1,,7 ")
	if err != nil || fmt.Sprint(got) != "[3 1 7]" {
		t.Errorf("parseSeeds(\" 3, 1,,7 \") = (%v, %v), want ([3 1 7], nil)", got, err)
	}
	for in, want := range map[string]string{
		"1,1":   "seed 1 listed twice in -seeds",
		"4,2,4": "seed 4 listed twice in -seeds",
		"1,x":   `bad seed "x" in -seeds`,
		" , ":   "-seeds given but no seeds parsed",
	} {
		if _, err := parseSeeds(in); err == nil || err.Error() != want {
			t.Errorf("parseSeeds(%q) error = %v, want %q", in, err, want)
		}
	}
}

// TestSeedsUsageExits2: the command refuses a repeated seed, a single
// -section and a -csv directory under -seeds before any run: it exits 2
// with one "mevscope:" prefix, prints nothing on stdout and creates no
// CSV directory. The test re-runs its own binary as the command, passing
// the command line after "--".
func TestSeedsUsageExits2(t *testing.T) {
	if args := flag.Args(); len(args) > 0 && args[0] == "mevscope" {
		runStudy(args[1:])
		t.Fatal("runStudy returned instead of exiting with a usage error")
	}
	csv := filepath.Join(t.TempDir(), "csv")
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-seeds", "1,1", "-bpm", "10"}, "mevscope: seed 1 listed twice in -seeds\n"},
		{[]string{"-seeds", "1,2", "-bpm", "10", "-months", "3", "-section", "fig9"},
			"mevscope: -seeds prints the ensemble's mean ± stddev summary (Table 1, Figures 3, 4 and 9, headline scalars); it cannot print -section fig9\n"},
		{[]string{"-seeds", "1,2", "-bpm", "10", "-months", "3", "-csv", csv},
			"mevscope: -seeds prints the ensemble's mean ± stddev summary to stdout; it writes no -csv directory\n"},
	} {
		stdout, stderr, code := runCommand(t, "TestSeedsUsageExits2", append([]string{"mevscope"}, tc.args...)...)
		if code != 2 {
			t.Errorf("mevscope %s: exit %d, want status 2 (stderr %q)", strings.Join(tc.args, " "), code, stderr)
			continue
		}
		if stderr != tc.msg || stdout != "" {
			t.Errorf("mevscope %s: stderr %q, stdout %q; want stderr %q and no stdout",
				strings.Join(tc.args, " "), stderr, stdout, tc.msg)
		}
	}
	if _, err := os.Stat(csv); !os.IsNotExist(err) {
		t.Errorf("-seeds with -csv created %s (stat: %v)", csv, err)
	}
}

// TestCheckObservation: the observation-network flags are validated up
// front — a typo'd topology or view and a negative vantage count are
// usage errors, not failed runs.
func TestCheckObservation(t *testing.T) {
	good := []struct {
		vantages int
		topology string
		view     string
	}{
		{0, "", ""},
		{4, "small-world", "union"},
		{2, "ring", "quorum:2"},
		{1, "ring-chords", "vantage:0"},
	}
	for _, g := range good {
		if err := checkObservation(g.vantages, g.topology, g.view); err != nil {
			t.Errorf("checkObservation(%d, %q, %q) = %v", g.vantages, g.topology, g.view, err)
		}
	}
	bad := []struct {
		vantages int
		topology string
		view     string
	}{
		{-1, "", ""},
		{0, "torus", ""},
		{0, "", "all"},
		{0, "", "quorum:0"},
	}
	for _, b := range bad {
		if err := checkObservation(b.vantages, b.topology, b.view); err == nil {
			t.Errorf("checkObservation(%d, %q, %q) accepted", b.vantages, b.topology, b.view)
		}
	}
}

// TestCheckServe: the serve subcommand must reject invalid flag
// combinations (exit 2) before binding a socket — no source at all, or a
// negative cache size. -cache 0 is valid: query.Config documents 0 as
// "selects 16", and the CLI must agree with the library it fronts.
func TestCheckServe(t *testing.T) {
	bad := []struct {
		from  string
		live  bool
		cache int
		want  string
	}{
		{"", false, 16, "-from DIR, -live"},
		{"dir", false, -1, "-cache must be"},
		{"", true, -1, "-cache must be"},
	}
	for _, c := range bad {
		err := checkServe(c.from, c.live, c.cache)
		if err == nil {
			t.Errorf("checkServe(%q, %v, %d) accepted; want error containing %q", c.from, c.live, c.cache, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("checkServe(%q, %v, %d) = %v; want mention of %q", c.from, c.live, c.cache, err, c.want)
		}
	}
	for _, c := range []struct {
		from  string
		live  bool
		cache int
	}{{"dir", false, 16}, {"", true, 16}, {"dir", true, 16}, {"dir", false, 0}} {
		if err := checkServe(c.from, c.live, c.cache); err != nil {
			t.Errorf("checkServe(%q, %v, %d) rejected: %v", c.from, c.live, c.cache, err)
		}
	}
}

// TestCheckServeLiveFlags: simulation flags set without -live must be
// rejected (exit 2), not silently ignored — `serve -from DIR -scenario
// no-flashbots` would otherwise serve baseline archive data.
func TestCheckServeLiveFlags(t *testing.T) {
	err := checkServeLiveFlags(false, []string{"-scenario", "-seed"})
	if err == nil {
		t.Fatal("live-only flags without -live accepted")
	}
	for _, name := range []string{"-scenario", "-seed"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error does not name %s: %v", name, err)
		}
	}
	if err := checkServeLiveFlags(true, []string{"-scenario"}); err != nil {
		t.Errorf("live-only flags with -live rejected: %v", err)
	}
	if err := checkServeLiveFlags(false, nil); err != nil {
		t.Errorf("no live-only flags rejected: %v", err)
	}
	for _, name := range []string{"seed", "scenario", "bpm", "months"} {
		if !liveOnlyFlagNames[name] {
			t.Errorf("flag %q missing from liveOnlyFlagNames", name)
		}
	}
}

// testArchiveDir simulates a tiny 6-month world and archives it, so the
// -range validation sees a truncated window (2020-05..2020-10).
func testArchiveDir(t *testing.T) string {
	return writeArchive(t, mevscope.Options{Seed: 5, BlocksPerMonth: 20, Months: 6})
}

// TestResolveRange: `analyze -range` must reject malformed and
// out-of-archive ranges as usage errors that name the valid window, and
// must pass through slices the archive can actually serve.
func TestResolveRange(t *testing.T) {
	man, err := archive.ReadManifest(testArchiveDir(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := resolveRange(man, ""); err != nil {
		t.Errorf("empty range rejected: %v", err)
	}
	lo, hi, err := resolveRange(man, "2020-06..2020-08")
	if err != nil {
		t.Fatalf("in-window range rejected: %v", err)
	}
	if lo.Label() != "2020-06" || hi.Label() != "2020-08" {
		t.Errorf("range resolved to %s..%s", lo.Label(), hi.Label())
	}
	// Malformed: the month parser's error lists the study window.
	if _, _, err := resolveRange(man, "bogus"); err == nil || !strings.Contains(err.Error(), "2020-05") {
		t.Errorf("malformed range error does not list the valid window: %v", err)
	}
	if _, _, err := resolveRange(man, "2020-08..2020-06"); err == nil {
		t.Error("inverted range accepted")
	}
	// Valid months that the truncated archive does not hold: the error
	// must list the archive's actual window.
	_, _, err = resolveRange(man, "2021-03..2021-06")
	if err == nil {
		t.Fatal("out-of-archive range accepted")
	}
	for _, want := range []string{"2020-05", "2020-10"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("out-of-archive error does not name the archive window bound %s: %v", want, err)
		}
	}
}

// writeArchive simulates a world and archives it into a fresh directory.
func writeArchive(t *testing.T, opts mevscope.Options) string {
	t.Helper()
	cfg, err := opts.Config()
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := archive.Write(dir, dataset.FromSim(s), nil); err != nil {
		t.Fatal(err)
	}
	return dir
}

// runCommand runs the command line args through the test binary, which
// re-enters the named test and hands args to the command (as
// TestSeedsUsageExits2 and TestAnalyzeMatchesReadRange do), and returns
// its stdout, stderr and exit status.
func runCommand(t *testing.T, test string, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^" + test + "$", "--"}, args...)...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return stdout.String(), stderr.String(), 0
	case errors.As(err, &exit):
		return stdout.String(), stderr.String(), exit.ExitCode()
	}
	t.Fatalf("mevscope %s: %v", strings.Join(args, " "), err)
	return "", "", 0
}

// TestAnalyzeMatchesReadRange: `mevscope analyze -from` assembles its
// report from month partials, and what it prints — the whole report, a
// -range slice, one -section, each -view of a multi-vantage archive —
// and the -csv files it writes are byte for byte what AnalyzeDataset
// over archive.ReadRange of the same months renders. A -range that
// selects no archived month exits 2 naming the archive's window, and a
// directory without a manifest exits 1. The test re-runs its own binary
// as the command, passing the command line after "--".
func TestAnalyzeMatchesReadRange(t *testing.T) {
	if args := flag.Args(); len(args) > 0 && args[0] == "analyze" {
		runAnalyze(args[1:])
		os.Exit(0)
	}
	single := writeArchive(t, mevscope.Options{Seed: 3, BlocksPerMonth: 20})
	multi := writeArchive(t, mevscope.Options{Seed: 3, BlocksPerMonth: 20, Vantages: 4})
	for _, tc := range []struct {
		dir, months, section, view string
	}{
		{single, "", "all", ""},
		{single, "2021-03..2021-06", "all", ""},
		{single, "", "fig9", ""},
		{multi, "", "all", ""},
		{multi, "", "all", "union"},
		{multi, "2021-01..2022-03", "all", "vantage:2"},
	} {
		lo, hi, err := types.ParseMonthRange(tc.months)
		if err != nil {
			t.Fatal(err)
		}
		ds, _, err := archive.ReadRange(tc.dir, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		ds.View = tc.view
		st, err := mevscope.AnalyzeDataset(ds, 2)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if tc.section == "all" {
			mevscope.WriteReportTo(&want, st.Report)
		} else {
			a, _ := st.Report.Artifact(tc.section)
			measure.WriteText(&want, a)
		}
		csvDir := filepath.Join(t.TempDir(), "csv")
		args := []string{"analyze", "-from", tc.dir, "-q", "-parallel", "2", "-section", tc.section, "-csv", csvDir}
		if tc.months != "" {
			args = append(args, "-range", tc.months)
		}
		if tc.view != "" {
			args = append(args, "-view", tc.view)
		}
		name := fmt.Sprintf("-range %q -section %s -view %q", tc.months, tc.section, tc.view)
		stdout, stderr, code := runCommand(t, "TestAnalyzeMatchesReadRange", args...)
		if code != 0 {
			t.Fatalf("analyze %s: exit %d: %s", name, code, stderr)
		}
		if stdout != want.String() {
			t.Errorf("analyze %s: stdout differs from AnalyzeDataset over ReadRange\ngot:\n%s\nwant:\n%s", name, stdout, want.String())
		}
		wantDir := filepath.Join(t.TempDir(), "want")
		if err := st.Report.WriteCSVDir(wantDir); err != nil {
			t.Fatal(err)
		}
		wantFiles, err := os.ReadDir(wantDir)
		if err != nil {
			t.Fatal(err)
		}
		gotFiles, err := os.ReadDir(csvDir)
		if err != nil {
			t.Fatal(err)
		}
		if len(gotFiles) != len(wantFiles) {
			t.Errorf("analyze %s: -csv wrote %d files, WriteCSVDir %d", name, len(gotFiles), len(wantFiles))
		}
		for _, f := range wantFiles {
			w, err := os.ReadFile(filepath.Join(wantDir, f.Name()))
			if err != nil {
				t.Fatal(err)
			}
			g, err := os.ReadFile(filepath.Join(csvDir, f.Name()))
			if err != nil || !bytes.Equal(g, w) {
				t.Errorf("analyze %s: -csv %s differs from WriteCSVDir's (read error %v)", name, f.Name(), err)
			}
		}
	}

	stdout, stderr, code := runCommand(t, "TestAnalyzeMatchesReadRange",
		"analyze", "-from", testArchiveDir(t), "-q", "-range", "2021-03..2021-06")
	if code != 2 || stdout != "" || !strings.Contains(stderr, "2020-05") || !strings.Contains(stderr, "2020-10") {
		t.Errorf("analyze -range outside the archive: exit %d, stdout %q, stderr %q; want exit 2 naming the window 2020-05..2020-10",
			code, stdout, stderr)
	}
	if stdout, stderr, code := runCommand(t, "TestAnalyzeMatchesReadRange",
		"analyze", "-from", t.TempDir(), "-q", "-range", "2021-03..2021-06"); code != 1 || stdout != "" || !strings.Contains(stderr, archive.ManifestName) {
		t.Errorf("analyze of a directory without a manifest: exit %d, stdout %q, stderr %q; want exit 1 naming %s",
			code, stdout, stderr, archive.ManifestName)
	}
}

// TestCheckServeArchive: serve reads the manifest of its -from archive
// at startup, so a missing manifest or one of a retired version stops
// the server (exit 1) with the archive package's error, while a current
// archive and a live-only server (no -from) pass.
func TestCheckServeArchive(t *testing.T) {
	if err := checkServeArchive(""); err != nil {
		t.Errorf("live-only serve rejected: %v", err)
	}
	if err := checkServeArchive(t.TempDir()); err == nil {
		t.Error("directory without a manifest accepted")
	}
	dir := writeArchive(t, mevscope.Options{Seed: 9, BlocksPerMonth: 20, Months: 2})
	if err := checkServeArchive(dir); err != nil {
		t.Fatalf("current archive rejected: %v", err)
	}
	path := filepath.Join(dir, archive.ManifestName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	current := fmt.Sprintf(`"version": %d,`, archive.DefaultFormat)
	if !strings.Contains(string(raw), current) {
		t.Fatalf("manifest does not carry %s", current)
	}
	old := strings.Replace(string(raw), current, `"version": 3,`, 1)
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	err = checkServeArchive(dir)
	if err == nil || !strings.Contains(err.Error(), "regenerate the archive with `mevscope archive`") {
		t.Errorf("version 3 archive: err = %v, want the regenerate refusal", err)
	}
}

// TestArchiveLive drives the `archive -live` path directly: a small
// world streamed month by month must produce a complete, readable
// archive with one segment per month.
func TestArchiveLive(t *testing.T) {
	cfg, err := mevscope.Options{Seed: 9, BlocksPerMonth: 20, Months: 3}.Config()
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	man, err := archiveLive(s, dir, map[string]string{"seed": "9"}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Segments) != 3 {
		t.Fatalf("live archive has %d segments, want 3", len(man.Segments))
	}
	ds, _, err := archive.Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Chain.Len() != s.Chain.Len() {
		t.Errorf("restored %d blocks, world has %d", ds.Chain.Len(), s.Chain.Len())
	}
}

// TestServeLive drives `serve -live` end to end: startLive grows a small
// world in the background behind a live-only server, and the live text
// report, polled over the HTTP handler while the world grows, must
// converge to mevscope.Run's report for the same options; /metrics must
// export the follower's lag. Under -race it also covers the stepping
// goroutine and the snapshot handler sharing the follower's mutex.
func TestServeLive(t *testing.T) {
	opts := mevscope.Options{Seed: 5, BlocksPerMonth: 10}
	st, err := mevscope.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	st.WriteReport(&want)

	srv, err := query.New(query.Config{AnalyzePartial: mevscope.AnalyzeDatasetPartial})
	if err != nil {
		t.Fatal(err)
	}
	if err := startLive(srv, opts, true); err != nil {
		t.Fatal(err)
	}
	get := func(url string) (int, string) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		return rec.Code, rec.Body.String()
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		code, body := get("/v1/report?source=live&format=text")
		if code != http.StatusOK {
			t.Fatalf("live report → %d: %s", code, body)
		}
		if body == want.String() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("live report did not converge to mevscope.Run's within 60s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Stepping and syncing share the follower's mutex, so the follower
	// never trails the world when the gauge reads it.
	if code, body := get("/metrics"); code != http.StatusOK || !strings.Contains(body, "mevscope_live_lag_blocks 0\n") {
		t.Errorf("/metrics → %d without a zero mevscope_live_lag_blocks gauge", code)
	}
}
