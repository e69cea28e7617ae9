package runctl

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"massf/internal/netmon"
)

// netSpec is testSpec with the network observability plane enabled at
// path-sampling stride 2.
func netSpec(name string, seed int64, seconds float64) Spec {
	spec := testSpec(name, seed, seconds)
	spec.NetSample = 2
	return spec
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("get %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("get %s: status %d: %s", url, resp.StatusCode, b)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("get %s: decode: %v", url, err)
	}
}

// TestServerNetObservability drives an instrumented run over HTTP and
// exercises every /net view of it: the link report, the flow records, the
// stitched packet paths, the completion stream, and the summary embedded
// in the run's Info.
func TestServerNetObservability(t *testing.T) {
	mgr := NewManagerOpts(Options{Workers: 2, RingCap: 256})
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()

	info := submitSpec(t, ts.URL, netSpec("observed", 3, 1.0))
	done := waitState(t, ts.URL, info.ID, 30*time.Second, func(i Info) bool { return i.State.Terminal() })
	if done.State != StateDone {
		t.Fatalf("run ended %s (err=%q)", done.State, done.Error)
	}
	if done.Net == nil || done.Net.NetMon == nil {
		t.Fatalf("finished instrumented run has no netmon summary: %+v", done.Net)
	}
	sum := done.Net.NetMon
	if sum.SampleEvery != 2 || sum.FlowsCompleted == 0 || sum.Spans == 0 {
		t.Fatalf("netmon summary shape: %+v", sum)
	}
	if int(sum.FlowsCompleted) > done.Net.FlowsCompleted {
		t.Fatalf("netmon completed %d flows, run only %d", sum.FlowsCompleted, done.Net.FlowsCompleted)
	}

	// Link report: busiest directions first, series on request.
	var links struct {
		Run     string             `json:"run"`
		Summary netmon.Summary     `json:"summary"`
		Links   *netmon.LinkReport `json:"links"`
	}
	getJSON(t, ts.URL+APIPrefix+"/runs/"+info.ID+"/net/links?top=4&series=1", &links)
	if links.Run != info.ID || links.Links == nil || len(links.Links.Links) == 0 {
		t.Fatalf("link report shape: %+v", links)
	}
	if len(links.Links.Links) > 4+int(links.Summary.DropsTail+links.Summary.DropsNoRoute) {
		t.Fatalf("top=4 returned %d directions", len(links.Links.Links))
	}
	first := links.Links.Links[0]
	if first.Bits == 0 || len(first.BitsSeries) != links.Links.Buckets {
		t.Fatalf("busiest direction carries no series: %+v", first)
	}
	for _, d := range links.Links.Links[1:] {
		if d.Bits > first.Bits {
			t.Fatalf("directions not sorted by bits: %d after %d", d.Bits, first.Bits)
		}
	}

	// Flow report with SRTT/cwnd trajectories.
	var flows struct {
		Flows *netmon.FlowReport `json:"flows"`
	}
	getJSON(t, ts.URL+APIPrefix+"/runs/"+info.ID+"/net/flows?samples=1", &flows)
	if flows.Flows == nil || flows.Flows.Recorded == 0 {
		t.Fatalf("flow report empty: %+v", flows.Flows)
	}
	if flows.Flows.FCT.Count != sum.FlowsCompleted {
		t.Fatalf("FCT histogram counts %d, summary says %d", flows.Flows.FCT.Count, sum.FlowsCompleted)
	}
	sampled := 0
	for _, f := range flows.Flows.Flows {
		if len(f.Samples) > 0 {
			sampled++
		}
	}
	if sampled == 0 {
		t.Fatal("no flow carries an SRTT/cwnd trajectory")
	}

	// Stitched packet paths.
	var paths struct {
		SampleEvery int           `json:"sample_every"`
		Count       int           `json:"count"`
		Paths       []netmon.Path `json:"paths"`
	}
	getJSON(t, ts.URL+APIPrefix+"/runs/"+info.ID+"/net/paths", &paths)
	if paths.SampleEvery != 2 || paths.Count == 0 || len(paths.Paths) != paths.Count {
		t.Fatalf("path report shape: sample=%d count=%d len=%d", paths.SampleEvery, paths.Count, len(paths.Paths))
	}
	for _, p := range paths.Paths {
		if p.Trace == 0 || len(p.Spans) == 0 {
			t.Fatalf("degenerate path: %+v", p)
		}
	}

	// Completion stream: the replay carries one snapshot per completion.
	resp, err := http.Get(ts.URL + APIPrefix + "/runs/" + info.ID + "/net/stream?follow=0")
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content type %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("completion stream replayed nothing")
	}
	var snap netmon.FlowSnapshot
	if err := json.Unmarshal([]byte(lines[0]), &snap); err != nil {
		t.Fatalf("bad stream line %q: %v", lines[0], err)
	}
	if snap.CompletedNS == 0 || snap.GoodputBps <= 0 {
		t.Fatalf("stream snapshot not a completion: %+v", snap)
	}

	// The pool gauges report a drained two-slot pool.
	resp, err = http.Get(ts.URL + APIPrefix + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"massfd_pool_slots 2", "massfd_pool_busy 0"} {
		if !strings.Contains(string(prom), want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, truncate(string(prom), 1500))
		}
	}
}

// TestServerNetStreamFollowsLive: a client following /net/stream on a
// run held in flight receives flow completions before the run finishes.
func TestServerNetStreamFollowsLive(t *testing.T) {
	mgr := NewManagerOpts(Options{Workers: 1, RingCap: 256})
	release := gateRuns(mgr)
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()
	defer shutdownMgr(t, mgr)

	info := submitSpec(t, ts.URL, netSpec("live", 1, 1))
	waitState(t, ts.URL, info.ID, 10*time.Second, func(i Info) bool { return i.State == StateRunning })

	resp, err := http.Get(ts.URL + APIPrefix + "/runs/" + info.ID + "/net/stream")
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream: status %d: %s", resp.StatusCode, b)
	}
	snaps := make(chan netmon.FlowSnapshot, 1024)
	go func() {
		defer close(snaps)
		dec := json.NewDecoder(resp.Body)
		for {
			var s netmon.FlowSnapshot
			if dec.Decode(&s) != nil {
				return
			}
			snaps <- s
		}
	}()
	select {
	case s := <-snaps:
		if s.CompletedNS == 0 {
			t.Fatalf("live snapshot not a completion: %+v", s)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("no live flow completion within 20s")
	}
	if st := getInfo(t, ts.URL, info.ID).State; st.Terminal() {
		t.Fatalf("run already terminal (%s) at first streamed completion", st)
	}
	release()
	// The stream must terminate when the run does (Mon closed).
	for range snaps {
	}
	if st := getInfo(t, ts.URL, info.ID).State; !st.Terminal() {
		t.Fatalf("stream ended while run still %s", st)
	}
}

// TestServerNetErrorPaths pins the 404 contract of the observability and
// fault endpoints: unknown runs, runs without the plane, and paths without
// sampling.
func TestServerNetErrorPaths(t *testing.T) {
	mgr := NewManagerOpts(Options{Workers: 2, RingCap: 256})
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()

	// Unknown run id: every view 404s.
	for _, path := range []string{
		"/runs/r9999/faults", "/runs/r9999/net/links", "/runs/r9999/net/flows",
		"/runs/r9999/net/paths", "/runs/r9999/net/stream",
	} {
		resp, err := http.Get(ts.URL + APIPrefix + path)
		if err != nil {
			t.Fatalf("get %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}

	// A finished run that never enabled netmon 404s with a hint.
	plain := submitSpec(t, ts.URL, testSpec("plain", 3, 0.3))
	waitState(t, ts.URL, plain.ID, 30*time.Second, func(i Info) bool { return i.State.Terminal() })
	for _, path := range []string{"/net/links", "/net/flows", "/net/paths", "/net/stream"} {
		resp, err := http.Get(ts.URL + APIPrefix + "/runs/" + plain.ID + path)
		if err != nil {
			t.Fatalf("get %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s on uninstrumented run: status %d, want 404", path, resp.StatusCode)
		}
		if !strings.Contains(string(body), "netmon") {
			t.Fatalf("GET %s error does not name the missing knob: %s", path, body)
		}
	}
	if info := getInfo(t, ts.URL, plain.ID); info.Net == nil || info.Net.NetMon != nil {
		t.Fatalf("uninstrumented run carries a netmon summary: %+v", info.Net)
	}

	// NetMon without sampling: link/flow views work, paths 404.
	spec := testSpec("links-only", 3, 0.3)
	spec.NetMon = true
	lo := submitSpec(t, ts.URL, spec)
	waitState(t, ts.URL, lo.ID, 30*time.Second, func(i Info) bool { return i.State.Terminal() })
	var links struct {
		Summary netmon.Summary `json:"summary"`
	}
	getJSON(t, ts.URL+APIPrefix+"/runs/"+lo.ID+"/net/links", &links)
	if links.Summary.SampleEvery != 0 {
		t.Fatalf("links-only run reports sampling: %+v", links.Summary)
	}
	resp, err := http.Get(ts.URL + APIPrefix + "/runs/" + lo.ID + "/net/paths")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("paths without sampling: status %d, want 404", resp.StatusCode)
	}

	// Negative sampling stride is rejected at submission.
	bad := `{"flat":{"routers":10,"hosts":10},"net_sample":-1}`
	presp, err := http.Post(ts.URL+APIPrefix+"/runs", "application/json", strings.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative net_sample accepted with status %d", presp.StatusCode)
	}
}
