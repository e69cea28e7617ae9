package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestSweepGolden pins every line a passing sweep prints with all five
// dimensions requested at once — churn, distributed, sharded, observer
// neutrality, hybrid fidelity — against the output captured before the
// legs were folded into one plan per scenario. The indented per-worker
// "owned nodes, build …ms" lines are dropped from both sides: worker join
// order and build times vary run to run.
func TestSweepGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full five-dimension sweep skipped in -short")
	}
	var buf bytes.Buffer
	ok, err := run(strings.Fields("-scenarios 3 -churn -dist 2 -dist-k 4 -shard -netmon 4 -fluid -v"), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("sweep failed:\n%s", buf.String())
	}
	var got strings.Builder
	for _, line := range strings.SplitAfter(buf.String(), "\n") {
		if !strings.Contains(line, " owned nodes, build ") {
			got.WriteString(line)
		}
	}
	want, err := os.ReadFile("testdata/sweep.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("sweep output changed\n--- got\n%s--- want\n%s", got.String(), want)
	}
}
