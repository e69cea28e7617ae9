package runctl

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestAPIUnversionedRoutesGone: the pre-/api/v1 aliases are deleted, not
// deprecated.
func TestAPIUnversionedRoutesGone(t *testing.T) {
	ts := httptest.NewServer(NewServer(NewManagerOpts(Options{Workers: 1, RingCap: 64})))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /runs: status %d, want 404", resp.StatusCode)
	}
}

// decodeEnvelope reads a response body as the uniform error envelope.
func decodeEnvelope(t *testing.T, r io.Reader) apiError {
	t.Helper()
	var env struct {
		Error apiError `json:"error"`
	}
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		t.Fatalf("error body is not the envelope: %v", err)
	}
	return env.Error
}

// TestAPIErrorEnvelope pins the uniform error shape and its three codes:
// invalid_spec (400), not_found (404), queue_full (429); not_ready (409) is
// pinned by TestAPIBuildingPhase.
func TestAPIErrorEnvelope(t *testing.T) {
	mgr := NewManagerOpts(Options{Workers: 1, RingCap: 256, QueueDepth: 1})
	gateRuns(mgr)
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()
	defer shutdownMgr(t, mgr)

	resp, err := http.Post(ts.URL+APIPrefix+"/runs", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty spec: status %d, want 400", resp.StatusCode)
	}
	if e := decodeEnvelope(t, resp.Body); e.Code != CodeInvalidSpec || e.Message == "" {
		t.Fatalf("empty spec envelope: %+v", e)
	}
	resp.Body.Close()

	// The distributed-worker knobs the daemon used to accept and ignore are
	// gone from the spec: naming one is an unknown field.
	resp, err = http.Post(ts.URL+APIPrefix+"/runs", "application/json",
		strings.NewReader(`{"flat":{"routers":10,"hosts":10},"no_slice":true}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("no_slice spec: status %d, want 400", resp.StatusCode)
	}
	if e := decodeEnvelope(t, resp.Body); e.Code != CodeInvalidSpec || !strings.Contains(e.Message, "no_slice") {
		t.Fatalf("no_slice envelope: %+v", e)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + APIPrefix + "/runs/r9999")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown run: status %d, want 404", resp.StatusCode)
	}
	if e := decodeEnvelope(t, resp.Body); e.Code != CodeNotFound || !strings.Contains(e.Message, "r9999") {
		t.Fatalf("unknown-run envelope: %+v", e)
	}
	resp.Body.Close()

	// Fill the pool and the queue, then overflow: 429 with queue_full.
	running := submitSpec(t, ts.URL, testSpec("running", 1, 1))
	waitState(t, ts.URL, running.ID, 10*time.Second, func(i Info) bool { return i.State == StateRunning })
	submitSpec(t, ts.URL, testSpec("waiting", 2, 1))
	body, _ := json.Marshal(testSpec("overflow", 3, 1))
	resp, err = http.Post(ts.URL+APIPrefix+"/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: status %d, want 429", resp.StatusCode)
	}
	if e := decodeEnvelope(t, resp.Body); e.Code != CodeQueueFull {
		t.Fatalf("overflow envelope: %+v", e)
	}
	resp.Body.Close()
}

// cancelResp is the cancel/DELETE response body.
type cancelResp struct {
	Run           Info  `json:"run"`
	CancelledFrom State `json:"cancelled_from"`
}

func doCancel(t *testing.T, base, id string) cancelResp {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, base+APIPrefix+"/runs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("cancel %s: %v", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("cancel %s: status %d: %s", id, resp.StatusCode, b)
	}
	var cr cancelResp
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatalf("cancel %s: decode: %v", id, err)
	}
	return cr
}

// TestAPICancelDistinguishesPhases pins the cancel-response contract: the
// body says whether the run was withdrawn from the queue before ever
// starting ("queued") or stopped mid-simulation ("running"), and a
// repeat cancel of a terminal run reports neither.
func TestAPICancelDistinguishesPhases(t *testing.T) {
	mgr := NewManagerOpts(Options{Workers: 1, RingCap: 256})
	gateRuns(mgr)
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()
	defer shutdownMgr(t, mgr)

	running := submitSpec(t, ts.URL, testSpec("victim", 1, 1))
	queued := submitSpec(t, ts.URL, testSpec("waiter", 2, 1))
	waitState(t, ts.URL, running.ID, 10*time.Second, func(i Info) bool { return i.State == StateRunning })

	// The queued run never started: cancellation is immediate and the
	// body pins the phase, echoed in the run's Info thereafter.
	qr := doCancel(t, ts.URL, queued.ID)
	if qr.CancelledFrom != StateQueued {
		t.Fatalf("queued cancel: cancelled_from=%q, want %q", qr.CancelledFrom, StateQueued)
	}
	if qr.Run.State != StateCancelled || qr.Run.Started != nil {
		t.Fatalf("queued cancel: state=%s started=%v, want cancelled/never-started", qr.Run.State, qr.Run.Started)
	}
	if info := getInfo(t, ts.URL, queued.ID); info.CancelledFrom != StateQueued {
		t.Fatalf("queued cancel not echoed in Info: %q", info.CancelledFrom)
	}

	// The running run is stopped cooperatively; the response lands before
	// the barrier, so its state may still read running — the phase field
	// is the contract.
	rr := doCancel(t, ts.URL, running.ID)
	if rr.CancelledFrom != StateRunning {
		t.Fatalf("running cancel: cancelled_from=%q, want %q", rr.CancelledFrom, StateRunning)
	}
	ri := waitState(t, ts.URL, running.ID, 30*time.Second, func(i Info) bool { return i.State.Terminal() })
	if ri.State != StateCancelled || ri.CancelledFrom != StateRunning {
		t.Fatalf("running cancel: state=%s cancelled_from=%q", ri.State, ri.CancelledFrom)
	}

	// Cancelling a terminal run changes nothing and reports no phase.
	tr := doCancel(t, ts.URL, running.ID)
	if tr.CancelledFrom != "" {
		t.Fatalf("terminal cancel: cancelled_from=%q, want empty", tr.CancelledFrom)
	}
	if tr.Run.State != StateCancelled {
		t.Fatalf("terminal cancel mutated state: %s", tr.Run.State)
	}
}

// TestAPIBuildingPhase holds a run in its building phase — an HPROF spec
// whose profiling pass covers an hour of simulated time — and pins what
// the phase looks like from outside: the state, the /metrics gauge, the
// not_ready answer of the /net endpoints, and a cancel that ends the run
// from "building", at a barrier of the pass, without it ever running.
func TestAPIBuildingPhase(t *testing.T) {
	mgr := NewManagerOpts(Options{Workers: 1, RingCap: 256})
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()

	// Warm the setup cache with the same scenario, so the HPROF run's
	// build_cached flag marks the moment its build step is over and the
	// profiling pass begins.
	warm := submitSpec(t, ts.URL, testSpec("warm", 9, 0.2))
	waitState(t, ts.URL, warm.ID, 30*time.Second, func(i Info) bool { return i.State.Terminal() })

	spec := netSpec("profiling", 9, 3600)
	spec.Approach = "HPROF"
	info := submitSpec(t, ts.URL, spec)
	if info.State != StateBuilding {
		t.Fatalf("dispatched run in state %s, want %s", info.State, StateBuilding)
	}
	waitState(t, ts.URL, info.ID, 30*time.Second, func(i Info) bool { return i.BuildCached })

	resp, err := http.Get(ts.URL + APIPrefix + "/runs/" + info.ID + "/net/links")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("/net/links on a building run: status %d, want 409", resp.StatusCode)
	}
	if e := decodeEnvelope(t, resp.Body); e.Code != CodeNotReady {
		t.Fatalf("/net/links envelope: %+v", e)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + APIPrefix + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := `massfd_runs{state="building"} 1`; !strings.Contains(string(prom), want) {
		t.Fatalf("/metrics missing %q in:\n%s", want, truncate(string(prom), 1500))
	}

	cr := doCancel(t, ts.URL, info.ID)
	if cr.CancelledFrom != StateBuilding {
		t.Fatalf("cancel: cancelled_from=%q, want %q", cr.CancelledFrom, StateBuilding)
	}
	done := waitState(t, ts.URL, info.ID, 30*time.Second, func(i Info) bool { return i.State.Terminal() })
	if done.State != StateCancelled || done.CancelledFrom != StateBuilding {
		t.Fatalf("cancelled build: state=%s cancelled_from=%q", done.State, done.CancelledFrom)
	}
	// MLLms and the report are recorded when a run turns running.
	if done.MLLms != 0 || done.Report != nil {
		t.Fatalf("run cancelled while building reports a simulation: %+v", done)
	}

	// An uninstrumented run in the same phase is still a plain 404.
	plain := testSpec("plain", 9, 3600)
	plain.Approach = "HPROF"
	pi := submitSpec(t, ts.URL, plain)
	resp, err = http.Get(ts.URL + APIPrefix + "/runs/" + pi.ID + "/net/links")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/net/links on an uninstrumented building run: status %d, want 404", resp.StatusCode)
	}
	doCancel(t, ts.URL, pi.ID)
	waitState(t, ts.URL, pi.ID, 30*time.Second, func(i Info) bool { return i.State.Terminal() })
}
