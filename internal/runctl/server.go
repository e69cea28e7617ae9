// HTTP surface of the run-control daemon, under the versioned /api/v1
// prefix. Errors are a uniform JSON envelope:
//
//	{"error": {"code": "<machine_code>", "message": "<human text>"}}
//
// with codes invalid_spec (400), not_found (404), not_ready (409) and
// queue_full (429).
//
// Routes (Go 1.22 method patterns, shown without the /api/v1 prefix):
//
//	GET    /healthz               liveness probe
//	GET    /runs                  list runs (JSON)
//	POST   /runs                  submit a Spec, returns 202 + Info
//	                              (429 queue_full when the admission
//	                              queue is at capacity)
//	GET    /runs/{id}             one run's Info
//	POST   /runs/{id}/cancel      request cancellation; the Info body's
//	                              cancelled_from says which phase the
//	                              request found the run in: queued,
//	                              building or running
//	DELETE /runs/{id}             same as cancel
//	GET    /runs/{id}/metrics     live NDJSON stream of per-window
//	                              records (replay + follow until the run
//	                              finishes); ?follow=0 dumps and returns,
//	                              ?format=prom serves a per-run
//	                              Prometheus snapshot instead
//	GET    /runs/{id}/trace       flight recording as Chrome trace-event
//	                              JSON (load in ui.perfetto.dev); works
//	                              live and after the run
//	GET    /runs/{id}/straggler   straggler/critical-path analysis of the
//	                              recording (JSON; ?format=text for the
//	                              human summary, ?k=N for the ranking
//	                              depth)
//	GET    /runs/{id}/profile     measured traffic profile captured from
//	                              the run (massf-profile text format);
//	                              resubmit it in Spec.Profile to drive
//	                              PROF/HPROF from measured rates
//	GET    /runs/{id}/faults      per-fault reconvergence report of a
//	                              finished run: physical time, BGP update
//	                              messages, modeled convergence delay,
//	                              when new routes took effect, attributed
//	                              packet loss (JSON; 404 while in flight
//	                              or for fault-free runs)
//	GET    /runs/{id}/net/links   per-link utilization/queue/drop report
//	                              from the netmon plane (?top=N busiest
//	                              directions, default 32; ?series=1 adds
//	                              the windowed series; 404 when the spec
//	                              did not enable netmon, 409 not_ready
//	                              while the run is queued or building)
//	GET    /runs/{id}/net/flows   per-flow TCP records + flow-completion-
//	                              time histogram (?samples=1 adds the
//	                              SRTT/cwnd trajectories)
//	GET    /runs/{id}/net/paths   sampled packet paths stitched from hop
//	                              spans (requires net_sample > 0)
//	GET    /runs/{id}/net/stream  live NDJSON stream of flow completions
//	                              (replay + follow, like /metrics)
//	GET    /metrics               aggregate Prometheus exposition across
//	                              all runs (run="<id>" labels)
package runctl

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"massf/internal/flight"
	"massf/internal/netmon"
	"massf/internal/telemetry"
)

// maxSpecBytes bounds a submission body (DML uploads included).
const maxSpecBytes = 64 << 20

// APIPrefix is the canonical versioned route prefix.
const APIPrefix = "/api/v1"

// Server exposes a Manager over HTTP.
type Server struct {
	m   *Manager
	mux *http.ServeMux
}

// NewServer builds the HTTP front end for m.
func NewServer(m *Manager) *Server {
	s := &Server{m: m, mux: http.NewServeMux()}
	s.handle("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.handle("GET /runs", s.listRuns)
	s.handle("POST /runs", s.submitRun)
	s.handle("GET /runs/{id}", s.getRun)
	s.handle("POST /runs/{id}/cancel", s.cancelRun)
	s.handle("DELETE /runs/{id}", s.cancelRun)
	s.handle("GET /runs/{id}/metrics", s.runMetrics)
	s.handle("GET /runs/{id}/trace", s.runTrace)
	s.handle("GET /runs/{id}/straggler", s.runStraggler)
	s.handle("GET /runs/{id}/profile", s.runProfile)
	s.handle("GET /runs/{id}/faults", s.runFaults)
	s.handle("GET /runs/{id}/net/links", s.runNetLinks)
	s.handle("GET /runs/{id}/net/flows", s.runNetFlows)
	s.handle("GET /runs/{id}/net/paths", s.runNetPaths)
	s.handle("GET /runs/{id}/net/stream", s.runNetStream)
	s.handle("GET /metrics", s.aggregateMetrics)
	return s
}

// handle registers "METHOD /path" under APIPrefix.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	method, path, ok := strings.Cut(pattern, " ")
	if !ok {
		panic("runctl: route pattern must be \"METHOD /path\": " + pattern)
	}
	s.mux.HandleFunc(method+" "+APIPrefix+path, h)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// Error codes of the uniform error envelope.
const (
	CodeInvalidSpec = "invalid_spec"
	CodeNotFound    = "not_found"
	CodeNotReady    = "not_ready"
	CodeQueueFull   = "queue_full"
)

// apiError is the uniform JSON error envelope:
// {"error": {"code", "message"}}.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func writeError(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, map[string]apiError{
		"error": {Code: code, Message: err.Error()},
	})
}

func writeNotFound(w http.ResponseWriter, err error) {
	writeError(w, http.StatusNotFound, CodeNotFound, err)
}

// lookup resolves the request's {id} to its run, answering 404 itself
// when there is none.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*Run, bool) {
	run, ok := s.m.Get(r.PathValue("id"))
	if !ok {
		writeNotFound(w, fmt.Errorf("runctl: no run %q", r.PathValue("id")))
	}
	return run, ok
}

func (s *Server) listRuns(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"runs": s.m.List()})
}

func (s *Server) submitRun(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidSpec, fmt.Errorf("runctl: bad spec: %w", err))
		return
	}
	run, err := s.m.Submit(spec)
	if err != nil {
		if errors.Is(err, ErrQueueFull) {
			writeError(w, http.StatusTooManyRequests, CodeQueueFull, err)
			return
		}
		writeError(w, http.StatusBadRequest, CodeInvalidSpec, err)
		return
	}
	writeJSON(w, http.StatusAccepted, run.Info())
}

func (s *Server) getRun(w http.ResponseWriter, r *http.Request) {
	run, ok := s.lookup(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, run.Info())
}

// cancelRun requests cancellation. The response body distinguishes the
// live cases: a queued run is withdrawn without ever starting
// (cancelled_from "queued", state already "cancelled"), a building run is
// stopped before its first event (cancelled_from "building"), a running
// simulation at its next barrier (cancelled_from "running"). Cancelling
// an already-terminal run is a no-op echo of its Info.
func (s *Server) cancelRun(w http.ResponseWriter, r *http.Request) {
	run, from, ok := s.m.Cancel(r.PathValue("id"))
	if !ok {
		writeNotFound(w, fmt.Errorf("runctl: no run %q", r.PathValue("id")))
		return
	}
	info := run.Info()
	writeJSON(w, http.StatusOK, map[string]any{
		"run":            info,
		"cancelled_from": cancelPhase(from),
	})
}

// cancelPhase maps the state a cancel request observed to the response's
// cancelled_from value: terminal states report empty (nothing was
// cancelled).
func cancelPhase(from State) State {
	if from.Terminal() {
		return ""
	}
	return from
}

// runMetrics streams one run's per-window telemetry as NDJSON (see
// streamNDJSON), or serves its Prometheus snapshot with ?format=prom.
func (s *Server) runMetrics(w http.ResponseWriter, r *http.Request) {
	run, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		telemetry.WritePrometheus(w, run.Tel.Gather(run.ID))
		return
	}
	past, ch, cancel := run.Tel.Windows.Subscribe(1024)
	defer cancel()
	streamNDJSON(w, r, run, past, ch)
}

// streamNDJSON writes a run's live stream as NDJSON: the retained history
// first, then records as they arrive, ending once the source has closed
// and the run is terminal, or when the client disconnects. ?follow=0
// dumps the history and returns.
func streamNDJSON[T any](w http.ResponseWriter, r *http.Request, run *Run, past []T, ch <-chan T) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	for _, rec := range past {
		if enc.Encode(rec) != nil {
			return
		}
	}
	flush(w)
	if r.URL.Query().Get("follow") == "0" {
		return
	}
	ctx := r.Context()
	for {
		select {
		case rec, open := <-ch:
			// Drain whatever else is already buffered before flushing, so
			// a fast simulation does not force one flush per record.
			for more := true; open && more; {
				if enc.Encode(rec) != nil {
					return
				}
				select {
				case rec, open = <-ch:
				default:
					more = false
				}
			}
			flush(w)
			if !open {
				run.awaitTerminal(ctx)
				return
			}
		case <-ctx.Done():
			return
		}
	}
}

// awaitTerminal holds a live stream's response open until the run is
// terminal. The engine closes its window ring and completion stream when
// the simulation returns, a moment before the run's outcome is recorded;
// waiting here makes "the stream ended" imply a terminal state for the
// client that was following it.
func (r *Run) awaitTerminal(ctx context.Context) {
	select {
	case <-r.done:
	case <-ctx.Done():
	}
}

func flush(w http.ResponseWriter) {
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}

// runTrace exports the run's flight recording as Chrome trace-event
// JSON: one Perfetto track per engine with compute/barrier/exchange
// slices per barrier window. The snapshot reflects whatever the bounded
// ring currently retains, so it works on live runs too.
func (s *Server) runTrace(w http.ResponseWriter, r *http.Request) {
	run, ok := s.lookup(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", "massf-trace-"+run.ID+".json"))
	telemetry.WriteChromeTraceEvents(w, telemetry.BuildTraceEvents(run.Tel.Windows.Snapshot(), nil), map[string]string{
		"run":      run.ID,
		"approach": run.Spec.Approach,
		"engines":  strconv.Itoa(run.Spec.Engines),
	})
}

// runStraggler serves the straggler/critical-path analysis of the run's
// recording. Once the partition and measured per-node load exist (after
// mapping and the simulation respectively), each straggler engine is
// attributed to the simulated routers dominating its load.
func (s *Server) runStraggler(w http.ResponseWriter, r *http.Request) {
	run, ok := s.lookup(w, r)
	if !ok {
		return
	}
	k, _ := strconv.Atoi(r.URL.Query().Get("k"))
	rep := flight.Analyze(run.Tel.Windows.Snapshot(), k)
	if p := run.CapturedProfile(); p != nil {
		rep.AttributeRouters(run.Partition(), p.NodeEvents, 5)
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		rep.WriteText(w)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// runProfile serves the traffic profile measured from the run itself, in
// the massf-profile text format that cmd/massf, cmd/partition and
// Spec.Profile all consume — closing the paper's monitoring feedback
// loop over HTTP. 404 until the simulation has returned.
func (s *Server) runProfile(w http.ResponseWriter, r *http.Request) {
	run, ok := s.lookup(w, r)
	if !ok {
		return
	}
	p := run.CapturedProfile()
	if p == nil {
		writeNotFound(w,
			fmt.Errorf("runctl: run %q has no measured profile yet (state %s)", run.ID, run.State()))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	p.Write(w)
}

// runFaults serves the per-fault reconvergence and loss report captured
// when the simulation returned. 404 while the run is in flight or when it
// carried no fault script.
func (s *Server) runFaults(w http.ResponseWriter, r *http.Request) {
	run, ok := s.lookup(w, r)
	if !ok {
		return
	}
	recs := run.Faults()
	if recs == nil {
		writeNotFound(w,
			fmt.Errorf("runctl: run %q has no fault report (no fault script, or still %s)", run.ID, run.State()))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"run":    run.ID,
		"count":  len(recs),
		"faults": recs,
	})
}

// netMon resolves a run and its observability plane, writing the error
// when either is missing: 404 for an unknown run or one whose spec never
// enabled the plane, 409 not_ready for one that will have a plane but is
// still queued or building. The plane exists from the moment the run
// reports running, so the link/flow endpoints work on live runs too
// (atomic snapshots).
func (s *Server) netMon(w http.ResponseWriter, r *http.Request) (*Run, *netmon.Mon, bool) {
	run, ok := s.lookup(w, r)
	if !ok {
		return nil, nil, false
	}
	// State first: a run read as running has already published its plane.
	st := run.State()
	mon := run.NetMon()
	if mon == nil && (st == StateQueued || st == StateBuilding) &&
		(run.Spec.NetMon || run.Spec.NetSample > 0) {
		writeError(w, http.StatusConflict, CodeNotReady,
			fmt.Errorf("runctl: run %q is still %s; its network observability plane exists once it is running", run.ID, st))
		return nil, nil, false
	}
	if mon == nil {
		writeNotFound(w,
			fmt.Errorf("runctl: run %q has no network observability plane (submit with \"netmon\": true or \"net_sample\" > 0; state %s)",
				run.ID, run.State()))
		return nil, nil, false
	}
	return run, mon, true
}

// runNetLinks serves the per-link report: busiest directions first, drops
// split by cause, utilization when bandwidths are known.
func (s *Server) runNetLinks(w http.ResponseWriter, r *http.Request) {
	run, mon, ok := s.netMon(w, r)
	if !ok {
		return
	}
	top := 32
	if v := r.URL.Query().Get("top"); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			top = n
		}
	}
	rep := mon.LinkReport(top, r.URL.Query().Get("series") == "1")
	writeJSON(w, http.StatusOK, map[string]any{
		"run": run.ID, "summary": mon.Summary(), "links": rep,
	})
}

// runNetFlows serves the per-flow TCP records and the FCT histogram.
func (s *Server) runNetFlows(w http.ResponseWriter, r *http.Request) {
	run, mon, ok := s.netMon(w, r)
	if !ok {
		return
	}
	rep := mon.FlowReport(r.URL.Query().Get("samples") == "1")
	writeJSON(w, http.StatusOK, map[string]any{"run": run.ID, "flows": rep})
}

// runNetPaths serves the sampled packet paths stitched from hop spans.
func (s *Server) runNetPaths(w http.ResponseWriter, r *http.Request) {
	run, mon, ok := s.netMon(w, r)
	if !ok {
		return
	}
	if !mon.Sampling() {
		writeNotFound(w,
			fmt.Errorf("runctl: run %q records no packet paths (submit with \"net_sample\" > 0)", run.ID))
		return
	}
	paths := mon.Paths()
	writeJSON(w, http.StatusOK, map[string]any{
		"run": run.ID, "sample_every": mon.SampleEvery(),
		"count": len(paths), "paths": paths,
	})
}

// runNetStream streams flow completions as NDJSON (see streamNDJSON).
func (s *Server) runNetStream(w http.ResponseWriter, r *http.Request) {
	run, mon, ok := s.netMon(w, r)
	if !ok {
		return
	}
	past, ch, cancel := mon.SubscribeCompletions(1024)
	defer cancel()
	streamNDJSON(w, r, run, past, ch)
}

// aggregateMetrics serves the merged Prometheus exposition: daemon
// gauges plus every run's totals under its run label.
func (s *Server) aggregateMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	telemetry.WritePrometheus(w, s.m.Gather())
}
