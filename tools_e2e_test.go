package massf_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestToolsEndToEnd drives the command-line tools through the full
// documented workflow: generate a topology with mabrite, inspect a
// partition, run a profiling simulation with massf, and feed the profile
// back into an HPROF run — the PROF feedback loop, through the binaries.
func TestToolsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI binaries")
	}
	dir := t.TempDir()
	bin := func(name string) string { return filepath.Join(dir, name) }
	for _, tool := range []string{"mabrite", "partition", "massf"} {
		out, err := exec.Command("go", "build", "-o", bin(tool), "./cmd/"+tool).CombinedOutput()
		if err != nil {
			t.Fatalf("build %s: %v\n%s", tool, err, out)
		}
	}
	run := func(name string, args ...string) string {
		t.Helper()
		cmd := exec.Command(bin(name), args...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, out)
		}
		return string(out)
	}

	netFile := filepath.Join(dir, "net.dml")
	profFile := filepath.Join(dir, "prof.txt")
	partFile := filepath.Join(dir, "part.txt")

	// 1. Generate a small multi-AS topology.
	run("mabrite", "-as", "6", "-routers-per-as", "15", "-hosts", "60", "-o", netFile, "-stats")
	if fi, err := os.Stat(netFile); err != nil || fi.Size() == 0 {
		t.Fatalf("mabrite produced no DML: %v", err)
	}

	// 2. Profiling pass on one engine, capture the profile.
	out := run("massf", "-net", netFile, "-approach", "RANDOM", "-engines", "1",
		"-seconds", "2", "-app", "gridnpb", "-profile-out", profFile)
	if !strings.Contains(out, "parallel efficiency") {
		t.Fatalf("massf output missing metrics:\n%s", out)
	}
	if fi, err := os.Stat(profFile); err != nil || fi.Size() == 0 {
		t.Fatalf("no profile captured: %v", err)
	}

	// 3. Partition with HPROF using the captured profile.
	out = run("partition", "-net", netFile, "-approach", "HPROF", "-engines", "4",
		"-profile", profFile, "-o", partFile)
	if !strings.Contains(out, "achieved MLL") || !strings.Contains(out, "E = Es·Ec") {
		t.Fatalf("partition output incomplete:\n%s", out)
	}
	data, err := os.ReadFile(partFile)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(string(data), "\n")
	if lines != 6*15+60 {
		t.Fatalf("partition file has %d lines, want %d (one per node)", lines, 6*15+60)
	}

	// 4. Full HPROF simulation with the profile, flight recorder armed:
	// Chrome trace out plus the straggler report.
	traceFile := filepath.Join(dir, "trace.json")
	out = run("massf", "-net", netFile, "-approach", "HPROF", "-engines", "4",
		"-seconds", "2", "-app", "scalapack", "-profile", profFile,
		"-trace", traceFile, "-stragglers", "2")
	for _, want := range []string{"approach             HPROF", "flows", "http", "app[0]",
		"trace ", "top stragglers:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("massf HPROF output missing %q:\n%s", want, out)
		}
	}
	traceData, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	var traceDoc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			TID int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(traceData, &traceDoc); err != nil {
		t.Fatalf("-trace wrote invalid JSON: %v", err)
	}
	tids := map[int]bool{}
	for _, ev := range traceDoc.TraceEvents {
		if ev.Ph == "X" {
			tids[ev.TID] = true
		}
	}
	if len(tids) != 4 {
		t.Fatalf("trace has %d engine tracks, want 4", len(tids))
	}

	// 5. Flat (single-AS) generation path.
	flatFile := filepath.Join(dir, "flat.dml")
	run("mabrite", "-flat", "-routers", "80", "-hosts", "20", "-o", flatFile)
	out = run("partition", "-net", flatFile, "-approach", "HTOP", "-engines", "4")
	if !strings.Contains(out, "HTOP") {
		t.Fatalf("flat partition failed:\n%s", out)
	}

	// 6. A net the first threshold already over-contracts: the 50µs links
	// collapse into two supernodes, fewer than four engines, so the sweep
	// falls back to flat partitioning and says so.
	tinyFile := filepath.Join(dir, "tiny.dml")
	tiny := "massf [\n"
	for id := 0; id < 4; id++ {
		tiny += fmt.Sprintf("node [ id %d kind router as 0 x %d y 0 ]\n", id, id)
	}
	for i, lat := range []int{50_000, 5_000_000, 50_000} {
		tiny += fmt.Sprintf("link [ a %d b %d latency %d bandwidth 1000000000 ]\n", i, i+1, lat)
	}
	tiny += "as [ id 0 class stub defaultBorder -1 ]\n]\n"
	if err := os.WriteFile(tinyFile, []byte(tiny), 0o644); err != nil {
		t.Fatal(err)
	}
	out = run("partition", "-net", tinyFile, "-approach", "HTOP", "-engines", "4")
	if !strings.Contains(out, "chosen Tmll     none: the sweep fell back to flat partitioning") {
		t.Fatalf("fallback partition does not say the sweep fell back:\n%s", out)
	}

	// Error paths: unknown approach, PLACE without application hosts to
	// place, and missing file must fail.
	if err := exec.Command(bin("partition"), "-net", netFile, "-approach", "BOGUS").Run(); err == nil {
		t.Error("unknown approach accepted")
	}
	if err := exec.Command(bin("partition"), "-net", netFile, "-approach", "PLACE", "-engines", "4").Run(); err == nil {
		t.Error("PLACE without application hosts accepted")
	}
	if err := exec.Command(bin("massf"), "-net", filepath.Join(dir, "missing.dml")).Run(); err == nil {
		t.Error("missing network file accepted")
	}
}

// TestMassfdSmoke boots the run-control daemon on an ephemeral port,
// submits a scenario over HTTP, waits for it to finish, checks the
// metric endpoints, and shuts the daemon down gracefully.
func TestMassfdSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the massfd daemon")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "massfd")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/massfd").CombinedOutput(); err != nil {
		t.Fatalf("build massfd: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", "2")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The daemon logs its resolved address on the first line.
	sc := bufio.NewScanner(stderr)
	if !sc.Scan() {
		t.Fatalf("no startup line from massfd: %v", sc.Err())
	}
	m := regexp.MustCompile(`http://(127\.0\.0\.1:\d+)`).FindStringSubmatch(sc.Text())
	if m == nil {
		t.Fatalf("no listen address in startup line %q", sc.Text())
	}
	base := "http://" + m[1] + "/api/v1"
	go io.Copy(io.Discard, stderr)

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %q", code, body)
	}

	spec := `{"name":"smoke","flat":{"routers":40,"hosts":20},"engines":2,"seconds":0.5,"app":"scalapack","seed":1}`
	resp, err := http.Post(base+"/runs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var info struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatalf("submit decode: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || info.ID == "" {
		t.Fatalf("submit: status %d, id %q", resp.StatusCode, info.ID)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		_, body := get("/runs/" + info.ID)
		if err := json.Unmarshal([]byte(body), &info); err != nil {
			t.Fatalf("poll decode: %v (%s)", err, body)
		}
		if info.State == "done" {
			break
		}
		if info.State == "failed" || info.State == "cancelled" {
			t.Fatalf("run ended in state %s: %s", info.State, body)
		}
		if time.Now().After(deadline) {
			t.Fatalf("run stuck in state %s", info.State)
		}
		time.Sleep(50 * time.Millisecond)
	}

	if code, body := get("/runs/" + info.ID + "/metrics?follow=0"); code != http.StatusOK || len(strings.TrimSpace(body)) == 0 {
		t.Fatalf("window dump: %d, %d bytes", code, len(body))
	}
	if _, body := get("/metrics"); !strings.Contains(body, "massf_sim_events_total") {
		t.Fatalf("aggregate metrics missing simulation counters:\n%.1000s", body)
	}

	// Flight recorder: the trace endpoint serves well-formed Chrome trace
	// JSON — complete ("X") events with strictly increasing slice starts
	// per engine track and all three window phases.
	code, body := get("/runs/" + info.ID + "/trace")
	if code != http.StatusOK {
		t.Fatalf("trace: status %d", code)
	}
	var traceDoc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &traceDoc); err != nil {
		t.Fatalf("trace endpoint served invalid JSON: %v\n%.500s", err, body)
	}
	tracks := map[int]float64{}
	phases := map[string]bool{}
	for _, ev := range traceDoc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if prev, seen := tracks[ev.TID]; seen && ev.TS <= prev {
			t.Fatalf("track %d: slice starts not strictly increasing", ev.TID)
		}
		tracks[ev.TID] = ev.TS
		phases[ev.Name] = true
	}
	if len(tracks) != 2 {
		t.Fatalf("trace has %d engine tracks, want 2", len(tracks))
	}
	for _, ph := range []string{"compute", "barrier", "exchange"} {
		if !phases[ph] {
			t.Fatalf("trace missing %q slices", ph)
		}
	}

	// The measured profile of the finished run is served for feedback.
	if code, body := get("/runs/" + info.ID + "/profile"); code != http.StatusOK ||
		!strings.HasPrefix(body, "massf-profile v1") {
		t.Fatalf("profile endpoint: %d\n%.200s", code, body)
	}

	// Graceful shutdown on SIGTERM.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("massfd exited with error: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("massfd did not shut down within 15s of SIGTERM")
	}
}
