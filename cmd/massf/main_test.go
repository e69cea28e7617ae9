package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"massf/internal/dml"
	"massf/internal/runctl"
	"massf/internal/runspec"
	"massf/internal/topology"
)

// writeTestNet saves a small generated network as DML and returns its path.
// 12 hosts clears the command's ≥9-host floor (7 app hosts + clients +
// servers).
func writeTestNet(t *testing.T) string {
	t.Helper()
	net, err := topology.GenerateFlat(topology.FlatOptions{Routers: 30, Hosts: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "net.dml")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dml.WriteNetwork(f, net); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// stripWallTime removes the only line of the report that legitimately
// differs between identical runs (host wall-clock time, process memory).
func stripWallTime(s string) string {
	var keep []string
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, "wall time") ||
			strings.HasPrefix(line, "setup time") ||
			strings.HasPrefix(line, "memory") {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

var seedLine = regexp.MustCompile(`(?m)^seed\s+(\d+)$`)

// TestDerivedSeedIsReproducible is the regression for the time-derived
// -seed 0 path: the clock is injected, the effective seed is printed, and
// re-running with that printed seed as an explicit -seed reproduces the
// whole report byte for byte. Before the clock was injectable, `-seed 0`
// runs were unreproducible by construction.
func TestDerivedSeedIsReproducible(t *testing.T) {
	netPath := writeTestNet(t)
	base := []string{"-net", netPath, "-engines", "4", "-approach", "TOP2", "-seconds", "2", "-app", "none"}

	const derived = int64(987654321012345)
	var first bytes.Buffer
	err := run(append([]string{}, base...), &first, func() int64 { return derived })
	if err != nil {
		t.Fatal(err)
	}
	m := seedLine.FindStringSubmatch(first.String())
	if m == nil {
		t.Fatalf("report does not print the effective seed:\n%s", first.String())
	}
	if m[1] != fmt.Sprint(derived) {
		t.Fatalf("printed seed %s, want the injected clock value %d", m[1], derived)
	}

	// Re-run with the printed seed passed explicitly; the clock must not
	// be consulted at all.
	var second bytes.Buffer
	err = run(append(append([]string{}, base...), "-seed", m[1]), &second,
		func() int64 { t.Fatal("explicit -seed consulted the clock"); return 0 })
	if err != nil {
		t.Fatal(err)
	}
	if got, want := stripWallTime(second.String()), stripWallTime(first.String()); got != want {
		t.Errorf("report not reproduced byte for byte from the printed seed:\n--- derived run ---\n%s\n--- seeded rerun ---\n%s", want, got)
	}
}

// TestNetObservabilityFlags drives the command with the observability
// plane on: the text report gains the net digest, -pathtrace writes a
// loadable Chrome trace with path lanes, and -json emits the whole
// result — including the netmon views — as one JSON document.
func TestNetObservabilityFlags(t *testing.T) {
	netPath := writeTestNet(t)
	tracePath := filepath.Join(t.TempDir(), "paths.json")
	base := []string{"-net", netPath, "-engines", "4", "-approach", "TOP2",
		"-seconds", "2", "-app", "none", "-seed", "7"}

	var text bytes.Buffer
	err := run(append(append([]string{}, base...),
		"-netstats", "-netsample", "4", "-pathtrace", tracePath), &text,
		func() int64 { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"net drops", "net flows", "net FCT", "net link[0]", "net paths", "pathtrace "} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text report missing %q:\n%s", want, text.String())
		}
	}

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			PID  int    `json:"pid"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("pathtrace is not Chrome trace JSON: %v", err)
	}
	pids := map[int]int{}
	for _, ev := range trace.TraceEvents {
		pids[ev.PID]++
	}
	if len(pids) < 2 {
		t.Fatalf("pathtrace has no extra path lanes beside the engine tracks: pids %v", pids)
	}

	var jsonBuf bytes.Buffer
	err = run(append(append([]string{}, base...), "-json", "-netsample", "4"), &jsonBuf,
		func() int64 { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Approach string `json:"approach"`
		Seed     int64  `json:"seed"`
		Result   struct {
			FlowsCompleted uint64 `json:"FlowsCompleted"`
			LinkDrops      []any  `json:"LinkDrops"`
		} `json:"result"`
		NetMon struct {
			Summary struct {
				SampleEvery int `json:"sample_every"`
				Spans       int `json:"spans"`
			} `json:"summary"`
			Links struct {
				Links []any `json:"links"`
			} `json:"links"`
			Flows struct {
				Recorded int `json:"recorded"`
			} `json:"flows"`
		} `json:"netmon"`
	}
	if err := json.Unmarshal(jsonBuf.Bytes(), &doc); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, jsonBuf.String())
	}
	if doc.Approach != "TOP2" || doc.Seed != 7 {
		t.Fatalf("json header wrong: %+v", doc)
	}
	if doc.Result.FlowsCompleted == 0 || len(doc.Result.LinkDrops) == 0 {
		t.Fatalf("json result missing flow/drop detail: %+v", doc.Result)
	}
	if doc.NetMon.Summary.SampleEvery != 4 || doc.NetMon.Summary.Spans == 0 ||
		len(doc.NetMon.Links.Links) == 0 || doc.NetMon.Flows.Recorded == 0 {
		t.Fatalf("json netmon views empty: %+v", doc.NetMon)
	}
	if strings.Contains(jsonBuf.String(), "approach             ") {
		t.Fatal("-json run also printed the text report")
	}
}

// TestRunRejectsBadFlags: errors surface as returned errors, not exits.
func TestRunRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{}, &out, func() int64 { return 1 }); err == nil {
		t.Error("missing -net accepted")
	}
	netPath := writeTestNet(t)
	if err := run([]string{"-net", netPath, "-approach", "NOPE"}, &out, func() int64 { return 1 }); err == nil {
		t.Error("unknown approach accepted")
	}
	// A negative size or report length is rejected by name, not read as
	// "default" or "off".
	for flag, field := range map[string]string{"-clients": "clients", "-servers": "servers", "-stragglers": "-stragglers"} {
		err := run([]string{"-net", netPath, "-approach", "TOP2", "-engines", "2", "-seconds", "1", "-app", "none", flag, "-5"}, &out, func() int64 { return 1 })
		if err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("%s -5: err = %v, want a rejection naming %q", flag, err, field)
		}
	}
}

// jsonRun is the slice of the -json document the launch-path tests read.
type jsonRun struct {
	ProfilingPassEvents uint64  `json:"profiling_pass_events"`
	Partition           []int32 `json:"partition"`
	Result              struct {
		TotalEvents    uint64
		FlowsStarted   int
		FlowsCompleted int
		Dropped        uint64
		NodeEvents     []uint64
	} `json:"result"`
}

func runJSON(t *testing.T, args ...string) jsonRun {
	t.Helper()
	var buf bytes.Buffer
	if err := run(append(args, "-json"), &buf, func() int64 { return 1 }); err != nil {
		t.Fatal(err)
	}
	var doc jsonRun
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, buf.String())
	}
	return doc
}

// TestMatchesDaemon: massf and massfd run a spec through the same launch
// path, so the same network, seed, approach, app and horizon give the same
// simulation on both surfaces — same host roles, same partition, same
// events on every node.
func TestMatchesDaemon(t *testing.T) {
	netPath := writeTestNet(t)
	dml, err := os.ReadFile(netPath)
	if err != nil {
		t.Fatal(err)
	}
	cli := runJSON(t, "-net", netPath, "-approach", "TOP2", "-engines", "2",
		"-seconds", "1", "-app", "scalapack", "-seed", "7")

	mgr := runctl.NewManagerOpts(runctl.Options{Workers: 1, RingCap: 64})
	r, err := mgr.Submit(runctl.Spec{
		DML: string(dml), Approach: "TOP2", App: "scalapack",
		RunSpec: runspec.RunSpec{Engines: 2, Seconds: 1, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for !r.State().Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("daemon run stuck in state %s", r.State())
		}
		time.Sleep(10 * time.Millisecond)
	}
	info := r.Info()
	if info.State != runctl.StateDone {
		t.Fatalf("daemon run ended %s (err=%q)", info.State, info.Error)
	}
	if cli.Result.TotalEvents == 0 || cli.Result.FlowsStarted == 0 {
		t.Fatalf("degenerate run: %+v", cli.Result)
	}
	if cli.Result.TotalEvents != info.Report.TotalEvents ||
		cli.Result.FlowsStarted != info.Net.FlowsStarted ||
		cli.Result.FlowsCompleted != info.Net.FlowsCompleted ||
		cli.Result.Dropped != info.Net.Dropped {
		t.Errorf("totals differ: massf %+v, massfd report %+v net %+v", cli.Result, info.Report, info.Net)
	}
	if !reflect.DeepEqual(cli.Partition, r.Partition()) {
		t.Errorf("partitions differ:\nmassf  %v\nmassfd %v", cli.Partition, r.Partition())
	}
	if !reflect.DeepEqual(cli.Result.NodeEvents, r.CapturedProfile().NodeEvents) {
		t.Errorf("per-node event counts differ")
	}
}

// TestProfileBasedApproachProfilesItself: a profile-based approach with no
// -profile runs the profiling pass first (it used to fail asking for a
// profile); with -profile the pass is skipped and the supplied
// measurements drive the same mapping.
func TestProfileBasedApproachProfilesItself(t *testing.T) {
	netPath := writeTestNet(t)
	profPath := filepath.Join(t.TempDir(), "prof.txt")
	base := []string{"-net", netPath, "-approach", "HPROF", "-engines", "2",
		"-seconds", "1", "-app", "scalapack", "-seed", "7"}

	self := runJSON(t, append(append([]string{}, base...), "-profile-out", profPath)...)
	if self.ProfilingPassEvents == 0 {
		t.Fatal("HPROF without -profile reports no profiling pass")
	}
	// The pass is the same workload on one engine: it measures exactly the
	// per-node load the mapped run then executes.
	var mapped uint64
	for _, n := range self.Result.NodeEvents {
		mapped += n
	}
	if self.ProfilingPassEvents != mapped {
		t.Errorf("profiling pass measured %d node events, the mapped run %d", self.ProfilingPassEvents, mapped)
	}

	fed := runJSON(t, append(append([]string{}, base...), "-profile", profPath)...)
	if fed.ProfilingPassEvents != 0 {
		t.Errorf("-profile still ran a profiling pass (%d events)", fed.ProfilingPassEvents)
	}
	if !reflect.DeepEqual(fed.Partition, self.Partition) {
		t.Errorf("measured profile fed back maps differently from the pass it was captured after")
	}

	var text bytes.Buffer
	if err := run(base, &text, func() int64 { return 1 }); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "profiling pass ") {
		t.Errorf("text report does not mention the profiling pass:\n%s", text.String())
	}
}
