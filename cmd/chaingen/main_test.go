package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mevscope"
)

// TestParseArgsRejectsBadInput: stray positionals and invalid flags must
// error (main exits 2) before any simulation work.
func TestParseArgsRejectsBadInput(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"extra"}, "unexpected argument"},
		{[]string{"-out", "d", "extra"}, "unexpected argument"},
		{[]string{"-bpm", "0"}, "-bpm must be positive"},
		{[]string{"-out", ""}, "-out DIR must not be empty"},
		{[]string{"-nope"}, "flag provided but not defined"},
	}
	for _, c := range cases {
		_, err := parseArgs(c.args)
		if err == nil {
			t.Errorf("args %v accepted; want error containing %q", c.args, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("args %v: error %q does not contain %q", c.args, err, c.want)
		}
	}
}

// TestParseArgsAcceptsValidInput: defaults and explicit flags parse.
func TestParseArgsAcceptsValidInput(t *testing.T) {
	o, err := parseArgs(nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.seed != 42 || o.bpm != 400 || o.out != "dataset" {
		t.Errorf("defaults = %+v", o)
	}
	o, err = parseArgs([]string{"-seed", "9", "-bpm", "50", "-out", "x"})
	if err != nil {
		t.Fatal(err)
	}
	if o.seed != 9 || o.bpm != 50 || o.out != "x" {
		t.Errorf("options = %+v", o)
	}
}

// TestExportWritesOneDocumentPerRecord: each exported collection file
// holds exactly one decodable JSON document per line, one line per
// record of the study it came from.
func TestExportWritesOneDocumentPerRecord(t *testing.T) {
	study, err := mevscope.Run(mevscope.Options{Seed: 3, BlocksPerMonth: 20, Vantages: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	n, err := export(study, dir)
	if err != nil {
		t.Fatal(err)
	}
	pending := 0
	for _, v := range study.Sim.Net.Vantages() {
		pending += len(v.Records())
	}
	if n.mev != len(study.Profits) || n.pending != pending || n.fbBlocks != len(study.Sim.Relay.Blocks()) {
		t.Fatalf("export counts %+v, study has %d MEV records, %d observations, %d Flashbots blocks",
			n, len(study.Profits), pending, len(study.Sim.Relay.Blocks()))
	}
	if n.mev == 0 || n.pending == 0 || n.fbBlocks == 0 {
		t.Fatalf("export counts %+v: the study should fill every collection", n)
	}
	for _, c := range []struct {
		file  string
		count int
		doc   func() any
	}{
		{"mev.jsonl", n.mev, func() any { return new(mevDoc) }},
		{"pending_transactions.jsonl", n.pending, func() any { return new(pendingDoc) }},
		{"flashbots_blocks.jsonl", n.fbBlocks, func() any { return new(fbBlockDoc) }},
	} {
		raw, err := os.ReadFile(filepath.Join(dir, c.file))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasSuffix(raw, []byte("\n")) {
			t.Errorf("%s does not end in a newline", c.file)
		}
		lines := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
		if len(lines) != c.count {
			t.Errorf("%s has %d lines, want %d", c.file, len(lines), c.count)
		}
		for i, line := range lines {
			dec := json.NewDecoder(bytes.NewReader(line))
			dec.DisallowUnknownFields()
			if err := dec.Decode(c.doc()); err != nil {
				t.Fatalf("%s line %d: %v", c.file, i+1, err)
			}
			if dec.More() {
				t.Fatalf("%s line %d holds more than one document", c.file, i+1)
			}
		}
	}
}
