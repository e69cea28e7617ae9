// Package runctl is the run-control core behind the massfd daemon: it
// accepts scenario specifications (an uploaded DML network or generator
// parameters), executes them as concurrent simulation runs under a
// bounded worker pool, and exposes each run's live telemetry — the
// per-window ring for NDJSON streaming and the totals folded from it for
// Prometheus scrapes.
package runctl

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"massf/internal/agent"
	"massf/internal/core"
	"massf/internal/des"
	"massf/internal/experiments"
	"massf/internal/faults"
	"massf/internal/memstat"
	"massf/internal/metrics"
	"massf/internal/netmon"
	"massf/internal/profile"
	"massf/internal/telemetry"
)

// Spec is a scenario submission: the launch path's one scenario
// description, decoded straight from the request body. Its defaults,
// validation and every step from topology to running simulation live in
// internal/experiments; this package schedules the steps and serves what
// they produce.
type (
	Spec     = experiments.Scenario
	FlatSpec = experiments.FlatSpec
)

// State is a run's lifecycle phase.
type State string

// Run states. queued → building → running → done | failed | cancelled.
// building covers everything between dispatch and the first event —
// scenario build, profiling pass, mapping, simulation construction;
// running means events are executing and every live surface of the run
// (netmon plane, ingest agent) is published. A run cancelled while queued
// or building goes straight to cancelled without ever reporting running.
const (
	StateQueued    State = "queued"
	StateBuilding  State = "building"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether no further transitions can happen.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Run is one submitted scenario. Its telemetry bundle is live from
// submission: the window ring streams while the simulation executes and
// is closed when the run reaches a terminal state.
type Run struct {
	ID   string
	Spec Spec
	Tel  *telemetry.SimTelemetry

	ctx    context.Context
	cancel context.CancelFunc
	// done is closed when the run turns terminal.
	done chan struct{}

	// weight is the spec's pool-slot weight clamped to the pool size, fixed
	// at Submit.
	weight int

	mu            sync.Mutex
	state         State
	err           error
	submitted     time.Time
	started       time.Time
	finished      time.Time
	setupMS       float64
	mem           memstat.Sample
	buildCached   bool
	mapping       *core.Mapping
	mon           *netmon.Mon
	agent         *agent.Agent    // the ingest agent while the run executes
	agentEnd      *agent.Counters // its final counters once it has ended
	out           *experiments.RunOutcome
	limitErr      error
	cancelledFrom State
}

// NetMon returns the run's network observability plane, published before
// the run reports running so live endpoints can stream from it; nil when
// the spec did not enable it (or the run is still queued or building).
func (r *Run) NetMon() *netmon.Mon {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.mon
}

// outcome returns what the simulation produced, or nil while it is in
// flight (or when the run ended before a simulation existed).
func (r *Run) outcome() *experiments.RunOutcome {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.out
}

// Faults returns the per-fault reconvergence/loss report of a finished
// run, or nil while the simulation is in flight (or the run had no fault
// script).
func (r *Run) Faults() []experiments.FaultRecord {
	if out := r.outcome(); out != nil {
		return out.Faults
	}
	return nil
}

// CapturedProfile returns the traffic profile measured from the run's own
// execution — node event counts and link bits (also for cancelled runs,
// whose partial measurements are still valid rates) — so it can feed a
// later HPROF submission. Nil while the simulation is in flight.
func (r *Run) CapturedProfile() *profile.Profile {
	if out := r.outcome(); out != nil {
		return out.Captured
	}
	return nil
}

// Partition returns the node→engine assignment the run executes under
// (nil until the run reports running).
func (r *Run) Partition() []int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.mapping == nil {
		return nil
	}
	return r.mapping.Part
}

// State returns the current lifecycle phase.
func (r *Run) State() State {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

// setBuilding marks the run dispatched: it left the queue and holds its
// pool slots.
func (r *Run) setBuilding() {
	r.mu.Lock()
	r.state = StateBuilding
	r.started = time.Now()
	r.mu.Unlock()
}

// setRunning publishes the prepared simulation's live surfaces and turns
// the run running, in one step under the run's lock — so a client that
// reads "running" finds the plane and the agent. It refuses (and the run
// stays building) when cancellation already arrived: requestCancel takes
// the same lock, so a cancel lands either wholly before or wholly after.
func (r *Run) setRunning(p *experiments.Prepared, ag *agent.Agent, setupMS float64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ctx.Err() != nil {
		return false
	}
	r.state = StateRunning
	r.mapping = p.Mapping
	r.mon = p.NetMon()
	r.agent = ag
	r.setupMS = setupMS
	return true
}

// requestCancel stops a dispatched run through its context, recording the
// phase the request found it in; any other state is left alone.
func (r *Run) requestCancel() State {
	r.mu.Lock()
	defer r.mu.Unlock()
	from := r.state
	if from == StateBuilding || from == StateRunning {
		if r.cancelledFrom == "" {
			r.cancelledFrom = from
		}
		r.cancel()
	}
	return from
}

// setLimitErr records the first resource-limit violation; later ones (a
// wall and memory limit racing) are ignored.
func (r *Run) setLimitErr(err error) {
	r.mu.Lock()
	if r.limitErr == nil {
		r.limitErr = err
	}
	r.mu.Unlock()
}

func (r *Run) limitError() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.limitErr
}

func (r *Run) setCancelledFrom(st State) {
	r.mu.Lock()
	if r.cancelledFrom == "" {
		r.cancelledFrom = st
	}
	r.mu.Unlock()
}

// armLimits starts the run's resource-limit enforcement: a wall-clock
// timer and a 50 ms heap sampler, each stopping the run through the
// cooperative cancellation path when its bound is exceeded. The returned
// stop function retires both; call it as soon as execute returns.
func (r *Run) armLimits() (stop func()) {
	var timer *time.Timer
	if wall := r.Spec.WallLimit(); wall > 0 {
		timer = time.AfterFunc(wall, func() {
			r.setLimitErr(fmt.Errorf("runctl: wall-clock limit %v exceeded", wall))
			r.cancel()
		})
	}
	done := make(chan struct{})
	if mem := r.Spec.MemLimitBytes(); mem > 0 {
		go func() {
			t := time.NewTicker(50 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-done:
					return
				case <-t.C:
					if h := memstat.Read().HeapInuse; h > mem {
						r.setLimitErr(fmt.Errorf("runctl: memory limit exceeded (heap %d MiB > %d MiB)",
							h>>20, mem>>20))
						r.cancel()
						return
					}
				}
			}
		}()
	}
	return func() {
		if timer != nil {
			timer.Stop()
		}
		close(done)
	}
}

// finish records a terminal state exactly once (later calls are ignored,
// so the panic-recovery path cannot overwrite a real outcome). The
// outcome, the state and the Done signal change together, under the run's
// lock: a reader that saw Done, or the end of a stream the server holds
// open until Done, reads a terminal state.
func (r *Run) finish(st State, err error, out *experiments.RunOutcome) {
	r.mu.Lock()
	if !r.state.Terminal() {
		r.state = st
		r.err = err
		r.out = out
		r.finished = time.Now()
		close(r.done)
	}
	r.mu.Unlock()
}

// Info is the JSON snapshot of a run: spec echo, lifecycle, live
// progress counters, and — once finished — the metrics report.
type Info struct {
	ID        string     `json:"id"`
	Name      string     `json:"name,omitempty"`
	State     State      `json:"state"`
	Approach  string     `json:"approach"`
	Engines   int        `json:"engines"`
	Seconds   float64    `json:"seconds"`
	App       string     `json:"app"`
	Fidelity  string     `json:"fidelity,omitempty"`
	Seed      int64      `json:"seed"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	Error     string     `json:"error,omitempty"`

	// Priority and Weight echo the scheduling knobs the run was admitted
	// under (weight after clamping to the pool size).
	Priority string `json:"priority,omitempty"`
	Weight   int    `json:"weight,omitempty"`
	// CancelledFrom distinguishes a cancellation's timing: "queued" (the
	// run never left the queue), "building" (stopped before its first
	// event) or "running" (a live simulation was stopped).
	CancelledFrom State `json:"cancelled_from,omitempty"`
	// BuildCached reports that the scenario build was served from the
	// daemon's setup cache instead of being regenerated.
	BuildCached bool `json:"build_cached,omitempty"`
	// Agent carries the run's live-ingest counters when the spec attached
	// it to the agent plane.
	Agent *agent.Counters `json:"agent,omitempty"`

	// Live progress, read from the run's telemetry.
	MLLms      float64 `json:"mll_ms,omitempty"`
	Windows    uint64  `json:"windows"`
	Events     uint64  `json:"events"`
	Remote     uint64  `json:"remote_events"`
	SimTimeSec float64 `json:"sim_time_sec"`

	// ProfileCaptured reports that a measured traffic profile is
	// available from GET /runs/{id}/profile.
	ProfileCaptured bool `json:"profile_captured,omitempty"`
	// FaultEvents is the number of scripted fault events the run executed;
	// the per-fault report is at GET /runs/{id}/faults.
	FaultEvents int `json:"fault_events,omitempty"`

	// SetupMS is the scenario build wall time — topology, routing, and
	// simulation construction, before the first event executes.
	SetupMS float64 `json:"setup_ms,omitempty"`
	// HeapInuse and PeakRSS are this worker process's live heap after the
	// run and its lifetime peak resident set, sampled when the simulation
	// returns. On a daemon executing runs concurrently they are
	// process-wide, not per-run.
	HeapInuse uint64 `json:"heap_inuse,omitempty"`
	PeakRSS   uint64 `json:"peak_rss,omitempty"`

	Report *metrics.Report         `json:"report,omitempty"`
	Net    *experiments.NetSummary `json:"net,omitempty"`
}

// Info snapshots the run.
func (r *Run) Info() Info {
	r.mu.Lock()
	in := Info{
		ID: r.ID, Name: r.Spec.Name, State: r.state,
		Approach: strings.ToUpper(r.Spec.Approach), Engines: r.Spec.Engines,
		Seconds: r.Spec.Seconds, App: r.Spec.App, Seed: r.Spec.Seed,
		Fidelity:  r.Spec.FlowFidelity,
		Submitted: r.submitted,
		SetupMS:   r.setupMS, HeapInuse: r.mem.HeapInuse, PeakRSS: r.mem.PeakRSS,
		Priority:      r.Spec.Priority,
		Weight:        r.weight,
		CancelledFrom: r.cancelledFrom,
		BuildCached:   r.buildCached,
	}
	if r.mapping != nil {
		in.MLLms = r.mapping.MLL.Millis()
	}
	if out := r.out; out != nil {
		in.Report, in.Net = &out.Report, &out.Net
		in.ProfileCaptured = true
		in.FaultEvents = len(out.Faults)
	}
	in.Agent = r.agentEnd
	if r.agent != nil {
		c := r.agent.Counters()
		in.Agent = &c
	}
	if !r.started.IsZero() {
		t := r.started
		in.Started = &t
	}
	if !r.finished.IsZero() {
		t := r.finished
		in.Finished = &t
	}
	if r.err != nil {
		in.Error = r.err.Error()
	}
	r.mu.Unlock()
	p := r.Tel.Progress()
	in.Windows, in.Events, in.Remote = p.Windows, p.Events, p.Remote
	in.SimTimeSec = float64(p.SimTimeNS) / 1e9
	return in
}

// Manager owns the run table and the scheduler: a bounded admission
// queue ordered by priority class, dispatched onto a weighted worker
// pool. A run of weight w occupies w of the pool's slots while
// executing; the queue head dispatches only when its full weight fits —
// strict priority with no backfill past a blocked head, so a heavy
// high-priority run cannot be starved by a stream of light low-priority
// ones.
type Manager struct {
	workers  int
	ringCap  int
	maxQueue int
	// defaultFaults, when set, is injected into submitted specs that carry
	// no fault script of their own (the massfd -faults flag).
	defaultFaults *faults.Script
	// builds memoizes scenario construction.
	builds *setupCache
	// ingest, when set, is the daemon's live agent plane; runs submitted
	// with Spec.Ingest register their agent under their run id.
	ingest *agent.Ingest
	// beforeRun, nil in production, is called with each run and its
	// prepared simulation after the run turns running and before its first
	// event; package tests schedule events through it that hold runs open.
	beforeRun func(*Run, *experiments.Prepared)

	mu      sync.Mutex
	runs    map[string]*Run
	order   []string
	next    int
	queue   []*Run // admission order within class; head dispatches first
	activeW int    // pool slots occupied by dispatched runs
	shut    bool
	wg      sync.WaitGroup
}

// setupCacheSize is the in-memory scenario build cache capacity (entries).
const setupCacheSize = 8

// Options configures a Manager.
type Options struct {
	// Workers is the pool size in slots (min 1). A run occupies
	// Spec.Weight slots (clamped to Workers) while executing.
	Workers int
	// RingCap is each run's telemetry window-ring capacity.
	RingCap int
	// QueueDepth bounds the admission queue; Submit fails with
	// ErrQueueFull beyond it. Default 64.
	QueueDepth int
	// Ingest attaches the live agent plane (nil disables Spec.Ingest).
	Ingest *agent.Ingest
}

// ErrQueueFull rejects a submission when the admission queue is at
// capacity — the service's load-shedding signal (HTTP 429).
var ErrQueueFull = fmt.Errorf("runctl: admission queue full")

// SetDefaultFaults installs a fault script applied to every submission
// lacking one. Call before serving; not synchronized against Submit.
func (m *Manager) SetDefaultFaults(sc *faults.Script) { m.defaultFaults = sc }

// NewManagerOpts returns a manager executing at most o.Workers slot-weights
// of simulations concurrently, each with a window ring of o.RingCap records.
func NewManagerOpts(o Options) *Manager {
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.RingCap < 1 {
		o.RingCap = 4096
	}
	if o.QueueDepth < 1 {
		o.QueueDepth = 64
	}
	m := &Manager{
		workers:  o.Workers,
		ringCap:  o.RingCap,
		maxQueue: o.QueueDepth,
		builds:   newSetupCache(setupCacheSize),
		ingest:   o.Ingest,
		runs:     map[string]*Run{},
	}
	return m
}

// Submit validates a spec and admits the run into the scheduler queue.
// The returned run is already visible to Get/List; it starts executing
// when the pool can fit its weight and everything ahead of it in
// priority order has dispatched. A full queue rejects with ErrQueueFull.
func (m *Manager) Submit(spec Spec) (*Run, error) {
	if spec.Faults == nil {
		spec.Faults = m.defaultFaults
	}
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Weight > m.workers {
		spec.Weight = m.workers // a run can ask for the whole pool, not more
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &Run{
		Spec:      spec,
		Tel:       telemetry.New(spec.Engines, m.ringCap),
		ctx:       ctx,
		cancel:    cancel,
		done:      make(chan struct{}),
		weight:    spec.Weight,
		state:     StateQueued,
		submitted: time.Now(),
	}
	m.mu.Lock()
	if len(m.queue) >= m.maxQueue {
		m.mu.Unlock()
		cancel()
		r.Tel.Windows.Close()
		return nil, ErrQueueFull
	}
	m.next++
	r.ID = fmt.Sprintf("r%04d", m.next)
	m.runs[r.ID] = r
	m.order = append(m.order, r.ID)
	m.enqueueLocked(r)
	m.scheduleLocked()
	m.mu.Unlock()
	return r, nil
}

// enqueueLocked inserts r in scheduling order: descending priority rank,
// ascending admission sequence within a rank.
func (m *Manager) enqueueLocked(r *Run) {
	rank := r.Spec.PriorityRank()
	i := len(m.queue)
	for i > 0 {
		q := m.queue[i-1]
		if q.Spec.PriorityRank() >= rank {
			break
		}
		i--
	}
	m.queue = append(m.queue, nil)
	copy(m.queue[i+1:], m.queue[i:])
	m.queue[i] = r
}

// scheduleLocked dispatches queue heads while they fit in the pool.
// Strict priority: a head that does not fit blocks everything behind it
// (no backfill), so heavy runs make progress under light-run load.
func (m *Manager) scheduleLocked() {
	if m.shut {
		return
	}
	for len(m.queue) > 0 {
		r := m.queue[0]
		if r.weight > m.workers-m.activeW {
			return
		}
		m.queue = m.queue[1:]
		m.activeW += r.weight
		r.setBuilding()
		m.wg.Add(1)
		go m.runLoop(r)
	}
}

// removeQueuedLocked withdraws r from the admission queue; it reports
// whether r was still queued.
func (m *Manager) removeQueuedLocked(r *Run) bool {
	for i, q := range m.queue {
		if q == r {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			return true
		}
	}
	return false
}

// Get returns a run by ID.
func (m *Manager) Get(id string) (*Run, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.runs[id]
	return r, ok
}

// snapshot returns every run in submission order, plus the scheduler's
// queue depth and occupied pool slots at the same instant.
func (m *Manager) snapshot() (runs []*Run, queueDepth, activeW int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	runs = make([]*Run, 0, len(m.order))
	for _, id := range m.order {
		runs = append(runs, m.runs[id])
	}
	return runs, len(m.queue), m.activeW
}

// List snapshots every run in submission order.
func (m *Manager) List() []Info {
	runs, _, _ := m.snapshot()
	infos := make([]Info, len(runs))
	for i, r := range runs {
		infos[i] = r.Info()
	}
	return infos
}

// Cancel requests cancellation of a run by ID. from reports the phase
// the run was in when the request landed: a queued run is withdrawn and
// turns cancelled immediately (it never started); a building run stops
// before its first event, a running one cooperatively at the next
// barrier; a terminal run is left untouched (from echoes its state).
func (m *Manager) Cancel(id string) (r *Run, from State, ok bool) {
	m.mu.Lock()
	r, ok = m.runs[id]
	if !ok {
		m.mu.Unlock()
		return nil, "", false
	}
	if m.removeQueuedLocked(r) {
		r.setCancelledFrom(StateQueued)
		r.finish(StateCancelled, nil, nil)
		m.mu.Unlock()
		r.cancel()
		r.Tel.Windows.Close()
		return r, StateQueued, true
	}
	m.mu.Unlock()
	return r, r.requestCancel(), true
}

// Shutdown cancels every run — queued runs turn cancelled immediately,
// dispatched ones stop before their first event or at their next barrier
// — and waits for dispatched workers to drain, bounded by ctx.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	m.shut = true
	queued := m.queue
	m.queue = nil
	for _, r := range m.runs {
		r.cancel()
	}
	m.mu.Unlock()
	for _, r := range queued {
		r.setCancelledFrom(StateQueued)
		r.finish(StateCancelled, nil, nil)
		r.Tel.Windows.Close()
	}
	done := make(chan struct{})
	go func() { m.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Gather merges daemon-level gauges with every run's telemetry, each run
// labeled run="<id>" — one scrape covers all concurrent simulations.
func (m *Manager) Gather() []telemetry.Point {
	runs, queueDepth, activeW := m.snapshot()
	counts := map[State]int{}
	for _, r := range runs {
		counts[r.State()]++
	}
	pts := make([]telemetry.Point, 0, 8+32*len(runs))
	for _, st := range []State{StateQueued, StateBuilding, StateRunning, StateDone, StateFailed, StateCancelled} {
		pts = append(pts, telemetry.Point{
			Name: "massfd_runs", Kind: "gauge",
			Help:   "Number of runs by lifecycle state.",
			Labels: map[string]string{"state": string(st)},
			Value:  float64(counts[st]),
		})
	}
	pts = append(pts,
		telemetry.Point{
			Name: "massfd_pool_slots", Kind: "gauge",
			Help:  "Size of the simulation worker pool (slot weights).",
			Value: float64(m.workers),
		},
		telemetry.Point{
			Name: "massfd_pool_busy", Kind: "gauge",
			Help:  "Pool slot weights occupied by executing simulations.",
			Value: float64(activeW),
		},
		telemetry.Point{
			Name: "massfd_queue_depth", Kind: "gauge",
			Help:  "Runs waiting in the admission queue.",
			Value: float64(queueDepth),
		},
		telemetry.Point{
			Name: "massfd_setup_cache_entries", Kind: "gauge",
			Help:  "Scenario builds held by the in-memory setup cache.",
			Value: float64(m.builds.len()),
		})
	if m.ingest != nil {
		pts = append(pts, m.ingest.Gather()...)
	}
	for _, r := range runs {
		pts = append(pts, r.Tel.Gather(r.ID)...)
	}
	return pts
}

// runLoop is a dispatched run's worker goroutine: execute under the
// armed resource limits and record the terminal state. The telemetry
// ring closes on every exit path so metric streams always terminate, and
// the freed pool weight reschedules the queue on the way out.
func (m *Manager) runLoop(r *Run) {
	defer m.wg.Done()
	defer func() {
		m.mu.Lock()
		m.activeW -= r.weight
		m.scheduleLocked()
		m.mu.Unlock()
	}()
	defer r.Tel.Windows.Close()
	defer func() {
		if p := recover(); p != nil {
			r.finish(StateFailed, fmt.Errorf("runctl: run panicked: %v", p), nil)
		}
	}()
	var out *experiments.RunOutcome
	err := r.ctx.Err()
	if err == nil {
		stopLimits := r.armLimits()
		out, err = m.execute(r)
		stopLimits()
	}
	switch lerr := r.limitError(); {
	case lerr != nil:
		// A limit fired: the stop arrived through the cancellation path,
		// but the outcome is a failure, with the partial report kept.
		r.finish(StateFailed, lerr, out)
	case err != nil && r.ctx.Err() != nil:
		r.setCancelledFrom(StateBuilding)
		r.finish(StateCancelled, nil, nil)
	case err != nil:
		r.finish(StateFailed, err, nil)
	case r.ctx.Err() != nil:
		// Stopped mid-simulation: keep the partial report.
		r.setCancelledFrom(StateRunning)
		r.finish(StateCancelled, nil, out)
	default:
		r.finish(StateDone, nil, out)
	}
}

// execute walks the run through the launch path (internal/experiments):
// build, profile, map, prepare — the building phase, with this package's
// caches around the build and map steps — then publishes the prepared
// simulation and runs it. Cancellation reaches the profiling pass and the
// simulation through the run's context and is checked between the other
// steps.
func (m *Manager) execute(r *Run) (*experiments.RunOutcome, error) {
	spec := r.Spec
	spec.Telemetry = r.Tel
	setupStart := time.Now()
	// Scenario construction — topology, routing warm-up, role selection —
	// is memoized by content key: a repeat submission shares the immutable
	// built state and pays only for the per-run overlay, driving
	// submit-to-first-window latency from a rebuild to milliseconds.
	key := setupKey(&spec)
	st, cached, err := m.builds.get(key, func() (*experiments.Setup, error) {
		net, multi, err := spec.Network()
		if err != nil {
			return nil, err
		}
		return spec.Build(net, multi, experiments.Exec{})
	})
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.buildCached = cached
	r.mu.Unlock()
	if err := r.ctx.Err(); err != nil {
		return nil, err
	}
	// Setup time excludes the optional profiling pass (a full simulation
	// run, not construction); the map + prepare segment is added below.
	setupNS := time.Since(setupStart)
	prof, err := spec.TrafficProfile(r.ctx, st)
	if err != nil {
		return nil, err
	}
	mapStart := time.Now()
	// Without a profile a mapping is deterministic per (setup, approach,
	// engines), so the warm path reuses it from the scenario cache; one
	// mapped from per-run measured rates is always computed fresh.
	var mp *core.Mapping
	if prof != nil {
		mp, err = spec.Map(st, prof)
	} else {
		mapKey := fmt.Sprintf("%s|e=%d", strings.ToUpper(spec.Approach), spec.Engines)
		mp, err = m.builds.mapping(key, mapKey, func() (*core.Mapping, error) {
			return spec.Map(st, nil)
		})
	}
	if err != nil {
		return nil, err
	}
	p, err := spec.Prepare(st, mp, nil, experiments.Exec{})
	if err != nil {
		return nil, err
	}
	setupNS += time.Since(mapStart)
	r.Tel.SetSetup(setupNS)
	var ag *agent.Agent
	if m.ingest != nil && spec.Ingest {
		// Expose the run to the live agent plane: outside connections
		// attach under the run id and address hosts by index into the
		// setup's host table. The pump must be installed before Run.
		ag = agent.New(p.Sim, des.Millisecond)
		m.ingest.Register(r.ID, ag, st.Hosts)
		defer func() {
			m.ingest.Unregister(r.ID)
			// The agent reaches back into the simulation: keep its counters.
			c := ag.Counters()
			r.mu.Lock()
			if r.agent != nil {
				r.agent, r.agentEnd = nil, &c
			}
			r.mu.Unlock()
		}()
	}
	if !r.setRunning(p, ag, float64(setupNS)/1e6) {
		return nil, r.ctx.Err()
	}
	if m.beforeRun != nil {
		m.beforeRun(r, p)
	}
	full := p.Run(r.ctx)
	// Keep what the daemon serves and let the rest go: the full result and
	// the traffic stats reach back into the simulation, and a finished run
	// stays in the run table.
	out := &experiments.RunOutcome{
		Report: full.Report, Net: full.Net, Faults: full.Faults, Captured: full.Captured,
	}
	// GC-free sample: a forced GC here would sit between the simulation's
	// streams closing and the run turning terminal, stalling clients that
	// follow them.
	mem := memstat.Read()
	r.mu.Lock()
	r.mem = mem
	r.mu.Unlock()
	return out, nil
}
