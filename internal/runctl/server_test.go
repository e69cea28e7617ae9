package runctl

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"massf/internal/des"
	"massf/internal/experiments"
	"massf/internal/faults"
	"massf/internal/flight"
	"massf/internal/profile"
	"massf/internal/runspec"
	"massf/internal/telemetry"
)

// testSpec is a tiny scenario that still exercises the full pipeline.
// The ScaLapack workload keeps traffic flowing through the whole horizon;
// a test that observes a run in flight holds it open with gateRuns.
func testSpec(name string, seed int64, seconds float64) Spec {
	return Spec{
		Name:     name,
		Flat:     &FlatSpec{Routers: 40, Hosts: 20},
		Approach: "HTOP",
		RunSpec:  runspec.RunSpec{Engines: 2, Seconds: seconds, Seed: seed},
		App:      "scalapack",
	}
}

func submitSpec(t *testing.T, base string, spec Spec) Info {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(base+APIPrefix+"/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, b)
	}
	var info Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatalf("submit: decode: %v", err)
	}
	return info
}

func getInfo(t *testing.T, base, id string) Info {
	t.Helper()
	resp, err := http.Get(base + APIPrefix + "/runs/" + id)
	if err != nil {
		t.Fatalf("get %s: %v", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("get %s: status %d: %s", id, resp.StatusCode, b)
	}
	var info Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatalf("get %s: decode: %v", id, err)
	}
	return info
}

func waitState(t *testing.T, base, id string, timeout time.Duration, want func(Info) bool) Info {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		info := getInfo(t, base, id)
		if want(info) {
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s stuck in state %s (err=%q)", id, info.State, info.Error)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// openStream starts reading a run's NDJSON metrics stream in the
// background, delivering records on a channel that closes at EOF.
func openStream(t *testing.T, base, id string) (<-chan telemetry.WindowRecord, func()) {
	t.Helper()
	resp, err := http.Get(base + APIPrefix + "/runs/" + id + "/metrics")
	if err != nil {
		t.Fatalf("stream %s: %v", id, err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("stream %s: status %d", id, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		resp.Body.Close()
		t.Fatalf("stream %s: content type %q", id, ct)
	}
	recs := make(chan telemetry.WindowRecord, 4096)
	go func() {
		defer close(recs)
		dec := json.NewDecoder(resp.Body)
		for {
			var rec telemetry.WindowRecord
			if err := dec.Decode(&rec); err != nil {
				return
			}
			recs <- rec
		}
	}()
	return recs, func() { resp.Body.Close() }
}

// TestServerConcurrentRunsAndLiveStream is the daemon's acceptance
// test: two scenarios execute concurrently, and a client streaming one
// run's metrics receives per-window records while that run (and its
// neighbor) are still in flight.
func TestServerConcurrentRunsAndLiveStream(t *testing.T) {
	mgr := NewManagerOpts(Options{Workers: 2, RingCap: 1024})
	release := gateRuns(mgr)
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()
	defer shutdownMgr(t, mgr)

	a := submitSpec(t, ts.URL, testSpec("a", 1, 1))
	b := submitSpec(t, ts.URL, testSpec("b", 2, 1))
	if a.ID == b.ID {
		t.Fatalf("duplicate run IDs: %s", a.ID)
	}
	if a.State != StateQueued && a.State != StateBuilding {
		t.Fatalf("fresh run in state %s", a.State)
	}

	waitState(t, ts.URL, a.ID, 10*time.Second, func(i Info) bool { return i.State == StateRunning })
	waitState(t, ts.URL, b.ID, 10*time.Second, func(i Info) bool { return i.State == StateRunning })

	recs, closeStream := openStream(t, ts.URL, a.ID)
	defer closeStream()
	var first telemetry.WindowRecord
	select {
	case first = <-recs:
	case <-time.After(15 * time.Second):
		t.Fatal("no window record within 15s of a live run")
	}
	if len(first.Events) != 2 {
		t.Fatalf("window record has %d engine slots, want 2", len(first.Events))
	}
	// The record arrived while both simulations were held at the gate:
	// neither run may have reached a terminal state yet.
	if st := getInfo(t, ts.URL, a.ID).State; st.Terminal() {
		t.Fatalf("run %s already terminal (%s) at first streamed record", a.ID, st)
	}
	if st := getInfo(t, ts.URL, b.ID).State; st.Terminal() {
		t.Fatalf("run %s already terminal (%s) while %s streams", b.ID, st, a.ID)
	}
	release()

	// Drain to EOF: the stream must terminate when the run finishes,
	// with monotonically increasing sequence numbers.
	count := 1
	last := first.Seq
	for rec := range recs {
		if rec.Seq <= last {
			t.Fatalf("sequence went backwards: %d after %d", rec.Seq, last)
		}
		last = rec.Seq
		count++
	}

	ai := waitState(t, ts.URL, a.ID, 30*time.Second, func(i Info) bool { return i.State.Terminal() })
	bi := waitState(t, ts.URL, b.ID, 30*time.Second, func(i Info) bool { return i.State.Terminal() })
	for _, info := range []Info{ai, bi} {
		if info.State != StateDone {
			t.Fatalf("run %s ended %s (err=%q)", info.ID, info.State, info.Error)
		}
		if info.Report == nil || info.Net == nil {
			t.Fatalf("run %s finished without report/net summary", info.ID)
		}
		if info.Windows == 0 || info.Events == 0 {
			t.Fatalf("run %s reports no progress: windows=%d events=%d", info.ID, info.Windows, info.Events)
		}
		if info.Report.SimTimeSec <= 0 {
			t.Fatalf("run %s has non-positive modeled time", info.ID)
		}
	}
	if count < int(ai.Windows) {
		t.Fatalf("streamed %d records, run executed %d windows", count, ai.Windows)
	}

	// The aggregate exposition carries both runs under their labels.
	resp, err := http.Get(ts.URL + APIPrefix + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		fmt.Sprintf(`massf_sim_events_total{run=%q}`, a.ID),
		fmt.Sprintf(`massf_sim_events_total{run=%q}`, b.ID),
		`massfd_runs{state="done"} 2`,
		`massf_net_flows_started_total`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("aggregate /metrics missing %q in:\n%s", want, truncate(text, 2000))
		}
	}
}

// TestServerCancel covers both cancellation paths: a queued run (worker
// pool of one, so the second submission waits) dies without starting,
// and a running run, held at the gate, stops at a barrier before its
// horizon.
func TestServerCancel(t *testing.T) {
	mgr := NewManagerOpts(Options{Workers: 1, RingCap: 256})
	gateRuns(mgr)
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()
	defer shutdownMgr(t, mgr)

	// Held until cancelled: only cancellation ends it.
	running := submitSpec(t, ts.URL, testSpec("victim", 1, 1))
	queued := submitSpec(t, ts.URL, testSpec("waiter", 2, 1))

	waitState(t, ts.URL, running.ID, 10*time.Second, func(i Info) bool { return i.State == StateRunning })
	if st := getInfo(t, ts.URL, queued.ID).State; st != StateQueued {
		t.Fatalf("second run in state %s with a one-worker pool", st)
	}

	// Cancel the queued run: it must go terminal without ever starting,
	// and its metrics stream must end immediately.
	resp, err := http.Post(ts.URL+APIPrefix+"/runs/"+queued.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatalf("cancel: %v", err)
	}
	resp.Body.Close()
	qi := waitState(t, ts.URL, queued.ID, 5*time.Second, func(i Info) bool { return i.State.Terminal() })
	if qi.State != StateCancelled || qi.Started != nil {
		t.Fatalf("queued run: state=%s started=%v, want cancelled/never-started", qi.State, qi.Started)
	}
	recs, closeStream := openStream(t, ts.URL, queued.ID)
	for range recs { // must hit EOF promptly — the ring is closed
	}
	closeStream()

	// Cancel the running run mid-flight after observing a live record.
	recs, closeStream = openStream(t, ts.URL, running.ID)
	defer closeStream()
	select {
	case <-recs:
	case <-time.After(15 * time.Second):
		t.Fatal("no window record from the running victim")
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+APIPrefix+"/runs/"+running.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("delete: %v", err)
	}
	resp.Body.Close()
	start := time.Now()
	ri := waitState(t, ts.URL, running.ID, 30*time.Second, func(i Info) bool { return i.State.Terminal() })
	if ri.State != StateCancelled {
		t.Fatalf("running run ended %s, want cancelled", ri.State)
	}
	if elapsed := time.Since(start); elapsed > 25*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	for range recs { // stream must also terminate
	}
}

func TestServerValidationAndNotFound(t *testing.T) {
	mgr := NewManagerOpts(Options{Workers: 1, RingCap: 64})
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()

	bad := []string{
		`{}`, // no topology source
		`{"flat":{"routers":10,"hosts":10},"multias":{"ases":2,"routers_per_as":5,"hosts":10}}`, // two sources
		`{"flat":{"routers":10,"hosts":10},"approach":"FASTEST"}`,                               // unknown approach
		`{"flat":{"routers":10,"hosts":10},"app":"doom"}`,                                       // unknown app
		`{"flat":{"routers":10,"hosts":10},"bogus":1}`,                                          // unknown field
		`{"flat":{"routers":10,"hosts":10},"engines":-3}`,                                       // bad engine count
		`{"flat":{"routers":10,"hosts":10},"clients":-5}`,                                       // negative clients
		`{"flat":{"routers":10,"hosts":10},"servers":-1}`,                                       // negative servers
		`{"flat":{"routers":10,"hosts":10},"approach":"PLACE"}`,                                 // PLACE with app none
	}
	for _, body := range bad {
		resp, err := http.Post(ts.URL+APIPrefix+"/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("spec %s accepted with status %d", body, resp.StatusCode)
		}
	}
	for _, url := range []string{"/runs/r9999", "/runs/r9999/metrics"} {
		resp, err := http.Get(ts.URL + APIPrefix + url)
		if err != nil {
			t.Fatalf("get %s: %v", url, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: status %d, want 404", url, resp.StatusCode)
		}
	}
}

// TestServerRunEndpoints exercises the non-streaming views of a
// finished run: the replayed NDJSON dump (?follow=0), the per-run
// Prometheus snapshot, and the run listing.
func TestServerRunEndpoints(t *testing.T) {
	mgr := NewManagerOpts(Options{Workers: 2, RingCap: 256})
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()

	// Unpaced: finishes in well under a second at this scale.
	spec := testSpec("quick", 3, 0.5)
	info := submitSpec(t, ts.URL, spec)
	done := waitState(t, ts.URL, info.ID, 30*time.Second, func(i Info) bool { return i.State.Terminal() })
	if done.State != StateDone {
		t.Fatalf("run ended %s (err=%q)", done.State, done.Error)
	}

	resp, err := http.Get(ts.URL + APIPrefix + "/runs/" + info.ID + "/metrics?follow=0")
	if err != nil {
		t.Fatalf("dump: %v", err)
	}
	dump, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	lines := strings.Split(strings.TrimSpace(string(dump)), "\n")
	if len(lines) == 0 || len(lines[0]) == 0 {
		t.Fatal("no replayed window records for a finished run")
	}
	var rec telemetry.WindowRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("bad NDJSON line %q: %v", lines[0], err)
	}

	resp, err = http.Get(ts.URL + APIPrefix + "/runs/" + info.ID + "/metrics?format=prom")
	if err != nil {
		t.Fatalf("prom: %v", err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(prom), fmt.Sprintf(`massf_sim_windows_total{run=%q}`, info.ID)) {
		t.Fatalf("per-run prom snapshot missing windows counter:\n%s", truncate(string(prom), 1000))
	}

	resp, err = http.Get(ts.URL + APIPrefix + "/runs")
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	var list struct {
		Runs []Info `json:"runs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatalf("list decode: %v", err)
	}
	resp.Body.Close()
	if len(list.Runs) != 1 || list.Runs[0].ID != info.ID || list.Runs[0].Name != "quick" {
		t.Fatalf("listing wrong: %+v", list.Runs)
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}

// TestServerFlightRecorder exercises the flight-recorder surface of a
// finished run: the Chrome trace export, the straggler analysis, the
// measured-profile capture, and the measured profile feeding a new
// HPROF submission (the paper's monitoring loop closed over HTTP).
func TestServerFlightRecorder(t *testing.T) {
	mgr := NewManagerOpts(Options{Workers: 2, RingCap: 256})
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()

	info := submitSpec(t, ts.URL, testSpec("recorder", 5, 0.5))
	done := waitState(t, ts.URL, info.ID, 30*time.Second, func(i Info) bool { return i.State.Terminal() })
	if done.State != StateDone {
		t.Fatalf("run ended %s (err=%q)", done.State, done.Error)
	}
	if !done.ProfileCaptured {
		t.Error("finished run does not advertise a captured profile")
	}

	// Chrome trace: valid JSON, one track per engine, strictly ordered
	// slice starts per track, all three phases present.
	resp, err := http.Get(ts.URL + APIPrefix + "/runs/" + info.ID + "/trace")
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	traceBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("trace content type %q", ct)
	}
	var doc struct {
		TraceEvents []telemetry.TraceEvent `json:"traceEvents"`
		OtherData   map[string]string      `json:"otherData"`
	}
	if err := json.Unmarshal(traceBody, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.OtherData["run"] != info.ID {
		t.Errorf("trace metadata: %v", doc.OtherData)
	}
	tracks := map[int]bool{}
	lastTS := map[int]float64{}
	phases := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		tracks[ev.TID] = true
		phases[ev.Name] = true
		if prev, ok := lastTS[ev.TID]; ok && ev.TS <= prev {
			t.Fatalf("tid %d: trace ts not strictly increasing", ev.TID)
		}
		lastTS[ev.TID] = ev.TS
	}
	if len(tracks) != 2 {
		t.Errorf("trace has %d tracks, want one per engine (2)", len(tracks))
	}
	for _, ph := range []string{"compute", "barrier", "exchange"} {
		if !phases[ph] {
			t.Errorf("trace missing phase %q", ph)
		}
	}

	// Straggler analysis: JSON names a bounding engine per window and
	// attributes the stragglers' load to simulated routers.
	resp, err = http.Get(ts.URL + APIPrefix + "/runs/" + info.ID + "/straggler?k=2")
	if err != nil {
		t.Fatalf("straggler: %v", err)
	}
	var rep flight.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatalf("straggler decode: %v", err)
	}
	resp.Body.Close()
	if rep.Engines != 2 || len(rep.Windows) == 0 {
		t.Fatalf("straggler report shape: %d engines, %d windows", rep.Engines, len(rep.Windows))
	}
	for _, wa := range rep.Windows {
		if wa.BoundingEngine < 0 || wa.BoundingEngine >= 2 {
			t.Fatalf("window seq %d names engine %d", wa.Seq, wa.BoundingEngine)
		}
	}
	if len(rep.Stragglers) == 0 || len(rep.Stragglers) > 2 {
		t.Fatalf("straggler ranking has %d entries", len(rep.Stragglers))
	}
	if len(rep.Stragglers[0].TopRouters) == 0 {
		t.Error("top straggler has no router attribution despite captured profile")
	}
	resp, err = http.Get(ts.URL + APIPrefix + "/runs/" + info.ID + "/straggler?format=text")
	if err != nil {
		t.Fatalf("straggler text: %v", err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(text), "top stragglers:") {
		t.Errorf("straggler text report:\n%s", truncate(string(text), 500))
	}

	// Measured profile: parses in the standard format and carries load.
	resp, err = http.Get(ts.URL + APIPrefix + "/runs/" + info.ID + "/profile")
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	profText, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	p, err := profile.Read(bytes.NewReader(profText))
	if err != nil {
		t.Fatalf("captured profile does not parse: %v\n%s", err, truncate(string(profText), 500))
	}
	if p.TotalEvents() == 0 {
		t.Fatal("captured profile is empty")
	}

	// Feed the measured profile into an HPROF submission: no profiling
	// pass, mapping driven by measured rates.
	spec := testSpec("hprof-from-measured", 5, 0.5)
	spec.Approach = "HPROF"
	spec.Profile = string(profText)
	hinfo := submitSpec(t, ts.URL, spec)
	hdone := waitState(t, ts.URL, hinfo.ID, 30*time.Second, func(i Info) bool { return i.State.Terminal() })
	if hdone.State != StateDone {
		t.Fatalf("HPROF-from-measured run ended %s (err=%q)", hdone.State, hdone.Error)
	}
	if hdone.Report == nil || hdone.Report.Approach != "HPROF" {
		t.Fatalf("HPROF run report: %+v", hdone.Report)
	}

	// A profile of the wrong shape must fail the run, and a syntactically
	// broken one must be rejected at submission.
	spec.Profile = "massf-profile v1\nhorizon 1\nnodes 1\nlinks 1\nn 0 5\n"
	mis := submitSpec(t, ts.URL, spec)
	mdone := waitState(t, ts.URL, mis.ID, 30*time.Second, func(i Info) bool { return i.State.Terminal() })
	if mdone.State != StateFailed || !strings.Contains(mdone.Error, "does not match network") {
		t.Fatalf("mismatched profile: state=%s err=%q", mdone.State, mdone.Error)
	}
	spec.Profile = "not a profile"
	body, _ := json.Marshal(spec)
	resp, err = http.Post(ts.URL+APIPrefix+"/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("bad profile submit: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage profile accepted with status %d", resp.StatusCode)
	}

	// Trace and straggler views exist for unknown runs only as 404s.
	for _, path := range []string{"/runs/r9999/trace", "/runs/r9999/straggler", "/runs/r9999/profile"} {
		resp, err := http.Get(ts.URL + APIPrefix + path)
		if err != nil {
			t.Fatalf("get %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestServerFaultReport drives a fault-scripted run over HTTP: the
// submitted spec carries a link outage, and once the run finishes
// GET /runs/{id}/faults serves the per-fault reconvergence/loss report.
// Runs without a script (and runs still in flight) 404.
func TestServerFaultReport(t *testing.T) {
	mgr := NewManagerOpts(Options{Workers: 2, RingCap: 256})
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()

	spec := testSpec("churny", 3, 0.5)
	spec.Faults = &faults.Script{
		Events: faults.Outage(0, 100*des.Millisecond, 200*des.Millisecond),
	}
	info := submitSpec(t, ts.URL, spec)
	done := waitState(t, ts.URL, info.ID, 30*time.Second, func(i Info) bool { return i.State.Terminal() })
	if done.State != StateDone {
		t.Fatalf("run ended %s (err=%q)", done.State, done.Error)
	}

	resp, err := http.Get(ts.URL + APIPrefix + "/runs/" + info.ID + "/faults")
	if err != nil {
		t.Fatalf("faults: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("faults: status %d: %s", resp.StatusCode, b)
	}
	var rep struct {
		Run    string                    `json:"run"`
		Count  int                       `json:"count"`
		Faults []experiments.FaultRecord `json:"faults"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatalf("faults: decode: %v", err)
	}
	if rep.Run != info.ID || rep.Count != 2 || len(rep.Faults) != 2 {
		t.Fatalf("fault report shape wrong: run=%q count=%d len=%d", rep.Run, rep.Count, len(rep.Faults))
	}
	if rep.Faults[0].Kind != faults.LinkDown || rep.Faults[0].At != 100*des.Millisecond {
		t.Fatalf("fault 0 = %+v, want the scripted link-down at 100ms", rep.Faults[0])
	}
	for i, fr := range rep.Faults {
		if fr.RoutesAt < fr.At {
			t.Errorf("fault %d: routes live at %v, before the fault at %v", i, fr.RoutesAt, fr.At)
		}
	}

	// A scriptless run has no report.
	plain := submitSpec(t, ts.URL, testSpec("plain", 3, 0.3))
	waitState(t, ts.URL, plain.ID, 30*time.Second, func(i Info) bool { return i.State.Terminal() })
	resp, err = http.Get(ts.URL + APIPrefix + "/runs/" + plain.ID + "/faults")
	if err != nil {
		t.Fatalf("faults (plain): %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("faults on a scriptless run: status %d, want 404", resp.StatusCode)
	}
}

// TestDefaultFaultsFillScriptlessSpecs: the daemon's default fault script
// (massfd -faults) is injected into a submission without a script and
// runs with it, while a submission that brings its own script keeps it.
func TestDefaultFaultsFillScriptlessSpecs(t *testing.T) {
	m := NewManagerOpts(Options{Workers: 2, RingCap: 64})
	defer shutdownMgr(t, m)
	def := &faults.Script{Events: faults.Outage(0, 100*des.Millisecond, 100*des.Millisecond)}
	m.SetDefaultFaults(def)
	inherit, err := m.Submit(testSpec("inherit", 3, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	ownSpec := testSpec("own", 3, 0.3)
	own := &faults.Script{Events: []faults.Event{{At: 150 * des.Millisecond, Kind: faults.LinkDown, Link: 1}}}
	ownSpec.Faults = own
	kept, err := m.Submit(ownSpec)
	if err != nil {
		t.Fatal(err)
	}
	if inherit.Spec.Faults != def || kept.Spec.Faults != own {
		t.Fatalf("scripts after submit: scriptless spec %p (default %p), own-script spec %p (own %p)",
			inherit.Spec.Faults, def, kept.Spec.Faults, own)
	}
	for _, c := range []struct {
		r      *Run
		events int
	}{{inherit, len(def.Events)}, {kept, len(own.Events)}} {
		info := waitRun(t, c.r, 30*time.Second, func(i Info) bool { return i.State.Terminal() })
		if info.State != StateDone {
			t.Fatalf("%s ended %s (err=%q)", c.r.Spec.Name, info.State, info.Error)
		}
		if got := len(c.r.Faults()); got != c.events {
			t.Errorf("%s ran %d fault events, want %d", c.r.Spec.Name, got, c.events)
		}
	}
}
