package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from this build's output")

// TestFiguresGolden pins every table the command prints, byte for byte, at
// the reduced scale cut to one simulated second: Figures 5, 3 and 6–13 with
// both headline tables, then the ablations. A change that moves a mapping,
// an event order or a modeled cost anywhere under the figures fails here;
// one that means to regenerates the golden with -update in its own commit.
func TestFiguresGolden(t *testing.T) {
	var got bytes.Buffer
	for _, args := range [][]string{
		{"-fig", "all", "-seconds", "1"},
		{"-fig", "ablations", "-seconds", "1"},
	} {
		fmt.Fprintf(&got, "$ experiments %s\n", strings.Join(args, " "))
		if err := run(args, &got, io.Discard); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
	path := filepath.Join("testdata", "figures.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("figures moved at line %d:\n got %q\nwant %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("figures moved: %d lines, golden has %d", len(gl), len(wl))
	}
}

// TestRunRejectsAndSelects: a -fig the command has no tables for, and an
// override no scenario can run, fail before anything runs, with usage on
// stderr for a bad flag; -h is flag.ErrHelp with usage on stderr; a valid
// -fig prints exactly its own tables and nothing but tables on stdout.
func TestRunRejectsAndSelects(t *testing.T) {
	for _, c := range []struct {
		args    []string
		wantErr string   // "" for success
		usage   bool     // the error comes with the usage text on stderr
		titles  []string // the printed tables' title prefixes, in order
	}{
		{args: []string{"-fig", "bogus"}, wantErr: `unknown -fig "bogus"`, usage: true},
		{args: []string{"-h"}, wantErr: flag.ErrHelp.Error(), usage: true},
		{args: []string{"-nosuchflag"}, wantErr: "flag provided but not defined", usage: true},
		{args: []string{"-fig", "5", "-engines", "-3"}, wantErr: "engines -3 out of range"},
		{args: []string{"-fig", "5", "-seconds", "5000"}, wantErr: "seconds 5000 out of range"},
		{args: []string{"-fig", "5", "-seconds", "-1"}, wantErr: "seconds -1 out of range"},
		{args: []string{"-fig", "5"}, titles: []string{"Figure 5:"}},
		{
			args:   []string{"-fig", "headline", "-seconds", "0.05", "-engines", "4"},
			titles: []string{"Headline claims on Single-AS", "Headline claims on Multi-AS"},
		},
	} {
		var out, errOut bytes.Buffer
		err := run(c.args, &out, &errOut)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("%v: error %v, want %q", c.args, err, c.wantErr)
			}
			if out.Len() != 0 || strings.Contains(errOut.String(), "Usage of experiments") != c.usage {
				t.Errorf("%v: printed before failing:\nstdout:\n%s\nstderr:\n%s", c.args, out.String(), errOut.String())
			}
			continue
		}
		if err != nil {
			t.Errorf("%v: %v", c.args, err)
			continue
		}
		// A table's title is its one unindented line.
		var titles []string
		for _, line := range strings.Split(out.String(), "\n") {
			if line != "" && !strings.HasPrefix(line, " ") {
				titles = append(titles, line)
			}
		}
		ok := len(titles) == len(c.titles)
		for i := 0; ok && i < len(titles); i++ {
			ok = strings.HasPrefix(titles[i], c.titles[i])
		}
		if !ok {
			t.Errorf("%v printed tables %q, want %q", c.args, titles, c.titles)
		}
	}
}
