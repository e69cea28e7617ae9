// Package pdes implements MaSSF's parallel conservative discrete event
// simulation engine: N logical "simulation engine nodes", each owning one
// des.Kernel, advancing in lockstep windows of length MLL (the minimum
// cross-partition link latency). Within a window every engine processes its
// local events independently; events destined for other engines always
// carry timestamps at or beyond the next window (the conservative
// lookahead guarantee provided by the partitioner's MLL), so they are
// exchanged at the barrier between windows.
//
// Engines are goroutines with a real barrier, so the simulation truly runs
// in parallel on the host. An engine that reaches the barrier first spins
// for a bounded time, yielding its processor, before it parks: in-process
// and unpaced, while the engines of every running Sim of the process fit
// GOMAXPROCS, a crossing then costs no OS-thread wake-up. Every other run
// parks its waiters at once. Because the paper's platform is a 128-node
// TeraGrid cluster we cannot reproduce, the engine additionally computes a
// modeled execution time per window — max over engines of (events ×
// per-event cost + remote sends × per-send cost) plus the cluster
// synchronization cost C(N) — which is the quantity the paper's simulation
// time, load imbalance, and parallel efficiency metrics are built from (see
// DESIGN.md substitution #1).
package pdes

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"massf/internal/cluster"
	"massf/internal/des"
	"massf/internal/telemetry"
	"massf/internal/wire"
)

// Config configures a parallel simulation.
type Config struct {
	// Engines is the number of simulation engine nodes N. Paper: 90.
	Engines int
	// Window is the barrier window length — the achieved MLL of the
	// partition. Must be > 0.
	Window des.Time
	// End is the simulated time horizon.
	End des.Time
	// Sync models the cluster's global synchronization cost. Defaults to
	// the TeraGrid Figure 5 model.
	Sync cluster.SyncCostModel
	// EventCost is the modeled CPU cost of processing one simulation
	// event. Default 15 µs (packet-level event on 2004 Itanium-2).
	EventCost des.Time
	// RealTimeFactor paces the simulation against the wall clock for
	// online (live traffic) use: 0 runs as fast as possible; 1.0 is the
	// paper's real-time mode (one simulated second per wall second); 8.0
	// is its 8× slowdown mode. A window never starts before
	// start + windowStart×factor of wall time. A paced run is bound by the
	// clock, not by its slowest engine, so its engines park at the window
	// barrier rather than spin.
	RealTimeFactor float64
	// Invariants, when non-nil, enables runtime invariant checking: every
	// exchange phase is audited for lookahead/causality, buffer parity and
	// drain-order violations, and each engine's kernel checks that no event
	// executes before its clock. Nil (the default) disables all checks; the
	// engine loop then pays one pointer test per window and the kernels one
	// per event. See Invariants for the recording contract.
	Invariants *Invariants
	// Telemetry, when non-nil, receives live observability data: the
	// leader publishes one WindowRecord per executed barrier window
	// (per-engine event counts, barrier wait, cross-partition exchange
	// volume, queue depths), from which the run's totals are folded. Nil
	// disables instrumentation; the engine loop then pays only a nil check
	// per window. Use one SimTelemetry per run — Run closes its window ring
	// on completion. With a Transport the records cover this worker's
	// hosted engines, indexed from FirstEngine.
	Telemetry *telemetry.SimTelemetry

	// Transport, when non-nil, runs this Sim as ONE WORKER of a distributed
	// simulation: only the engines in [FirstEngine, FirstEngine+HostedEngines)
	// execute live on this process, and once per window Run's leader engine
	// hands the Transport the hosted engines' reduction and cross-worker
	// events and takes the global next-event time and stop from its reply,
	// at the cost of a third barrier. Nil (the default) hosts every engine
	// and reduces locally; it is the only selector between the two modes.
	// Either way Run decides the next window itself. See
	// Transport for the window protocol and the deterministic-setup model
	// the distributed mode assumes. A worker's engines park at every
	// barrier: the third waits on the network, and co-located workers share
	// the host's processors.
	Transport Transport
	// Codec serializes remote events crossing worker processes (required
	// when Transport is set). Events scheduled through ScheduleRemoteEvent
	// to a non-hosted engine are encoded with it; a des.Handler closure
	// cannot cross workers and panics at the schedule site.
	Codec Codec
	// FirstEngine is the global index of the first engine hosted by this
	// worker (ignored without a Transport).
	FirstEngine int
	// HostedEngines is the number of engines this worker runs live (ignored
	// without a Transport). Zero means Engines-FirstEngine.
	HostedEngines int
}

// remoteCost is the modeled cost of shipping one event across engine nodes
// (MPI send + marshalling).
const remoteCost = 10 * des.Microsecond

func (c *Config) setDefaults() {
	if c.Sync == nil {
		c.Sync = cluster.DefaultTeraGrid()
	}
	if c.EventCost <= 0 {
		c.EventCost = 15 * des.Microsecond
	}
}

// seriesBuckets caps the length of the per-window load series kept for
// Figure 3: windows are aggregated into at most this many buckets.
const seriesBuckets = 512

// remoteEvent is an event shipped between engines at a barrier.
type remoteEvent struct {
	at  des.Time
	eh  des.EventHandler
	seq uint64
	src int32
}

// remoteCmp is the (at, src, seq) order gathered remote events are merged
// in — a strict total order (src+seq is unique), so the schedule is
// deterministic regardless of gather order.
func remoteCmp(a, b remoteEvent) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	if c := cmp.Compare(a.src, b.src); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// Engine is one simulation engine node. Event handlers scheduled on an
// engine run on that engine's goroutine; they may freely touch state owned
// by the engine and must use ScheduleRemoteEvent for anything owned elsewhere.
type Engine struct {
	id  int
	sim *Sim
	k   des.Kernel

	// outbox is double-buffered by executed-window parity (p): producers
	// fill outbox[p] during executed window wc (p = wc&1) while consumers
	// may still be draining outbox[1-p] from the previous window, so the
	// barrier swaps buffers instead of copying events. Parity follows the
	// count of *executed* windows, not the windows' start times —
	// fast-forward skips idle time, so two consecutive executed windows
	// can start an even number of Window widths apart. dirty[p] lists the
	// destinations written this window, so reclaiming outbox[p] two
	// executed windows later is O(written), and a buffer's len>0 doubles
	// as the "already registered with dst" flag.
	outbox [2][][]remoteEvent
	dirty  [2][]int32
	p      int // current outbox parity; owned by the engine goroutine

	incoming  []remoteEvent // persistent exchange gather scratch
	seq       uint64
	windowEnd des.Time

	// hostLo/hostHi delimit the engines hosted by this process. In-process
	// runs host everything ([0, N)), so the range test in the remote
	// schedule path is one always-taken branch; on a distributed worker,
	// destinations outside the range divert to the wire outbox.
	hostLo, hostHi int
	wireOut        []wireSend    // events leaving this worker, encoded at the barrier
	wireEnc        []wire.Event  // this window's encoded wire outbox
	wireIn         []remoteEvent // this window's events from other workers: decoded by the leader, drained by the engine

	events      uint64 // total events processed
	remoteSends uint64
	winEvents   uint64 // events in the current window
	winRemote   uint64
}

// ID returns the engine's index in [0, Engines).
func (e *Engine) ID() int { return e.id }

// Now returns the engine's current simulated time.
func (e *Engine) Now() des.Time { return e.k.Now() }

// Schedule enqueues a local event. The returned value handle can be kept
// in a struct field and cancelled with Cancel(&e); scheduling allocates
// nothing.
func (e *Engine) Schedule(at des.Time, h des.Handler) des.Event { return e.k.ScheduleEvent(at, h) }

// ScheduleEvent is Schedule for any EventHandler; hot paths pass a pointer
// to a pooled struct instead of building a closure.
func (e *Engine) ScheduleEvent(at des.Time, eh des.EventHandler) des.Event {
	return e.k.ScheduleEvent(at, eh)
}

// Cancel cancels a local event. Stale handles (already fired or cancelled)
// are a safe no-op.
func (e *Engine) Cancel(ev des.Event) { e.k.Cancel(&ev) }

// enqueueRemote labels a send with the engine's next (src, seq) and appends
// it to the current-parity outbox for dst, or to the cross-worker outbox
// when dst is hosted elsewhere. The label is taken before the destination is
// looked at, so a given logical send receives the same one wherever its
// destination is hosted — the property that makes a distributed run's merge
// order byte-identical to the in-process run's. On the first write to a
// hosted destination this window the engine registers the (src, dst) pair
// in the shared active table, so the consumer's gather at the barrier
// visits only sources that actually wrote — O(active pairs), not O(N²).
func (e *Engine) enqueueRemote(dst int, at des.Time, eh des.EventHandler) {
	re := remoteEvent{at: at, eh: eh, seq: e.seq, src: int32(e.id)}
	e.seq++
	e.remoteSends++
	e.winRemote++
	if dst < e.hostLo || dst >= e.hostHi {
		if _, closure := eh.(des.Handler); closure {
			panic(fmt.Sprintf("pdes: closure event for engine %d cannot cross workers (hosted range [%d,%d)); use a codec-registered kind", dst, e.hostLo, e.hostHi))
		}
		e.wireOut = append(e.wireOut, wireSend{re: re, dst: int32(dst)})
		return
	}
	p := e.p
	buf := e.outbox[p][dst]
	if len(buf) == 0 {
		e.dirty[p] = append(e.dirty[p], int32(dst))
		slot := atomic.AddInt32(&e.sim.activeN[dst], 1) - 1
		e.sim.active[dst][slot] = int32(e.id)
	}
	e.outbox[p][dst] = append(buf, re)
}

// ScheduleRemoteEvent enqueues an event on engine dst at time at. When dst
// is the local engine it schedules directly. For a true remote destination,
// at must not precede the end of the current window — the conservative
// guarantee the partitioner's MLL provides; violating it panics, as it
// would silently corrupt causality on a real PDES. So does a des.Handler
// closure addressed to an engine another worker hosts: it has no codec kind.
func (e *Engine) ScheduleRemoteEvent(dst int, at des.Time, eh des.EventHandler) {
	if dst == e.id {
		e.k.ScheduleEvent(at, eh)
		return
	}
	if at < e.windowEnd {
		panic(fmt.Sprintf("pdes: remote event at %v violates window end %v (MLL too large for this cut)", at, e.windowEnd))
	}
	e.enqueueRemote(dst, at, eh)
}

// Stats summarizes a completed run.
type Stats struct {
	// Engines is N.
	Engines int
	// Windows is the number of barrier windows executed.
	Windows int
	// Window is the MLL used.
	Window des.Time
	// TotalEvents is the sum of kernel events over all engines.
	TotalEvents uint64
	// EngineEvents[e] is the event count of engine e (the per-node
	// "kernel event rate" counters of Section 4.1).
	EngineEvents []uint64
	// RemoteEvents is the number of events shipped between engines.
	RemoteEvents uint64
	// LoadSeries[b][e] is engine e's event count in time bucket b — the
	// Figure 3 load-over-lifetime series.
	LoadSeries [][]uint64
	// BucketWidth is the simulated time per LoadSeries bucket.
	BucketWidth des.Time
	// ModeledTimeNS is the modeled wall-clock execution time on the
	// simulated cluster: Σ over windows of max(maxBusy_w, C(N)). The
	// synchronization (a tree allreduce) overlaps with event processing,
	// so a window costs whichever is larger — busy time on the most
	// loaded engine, or the barrier itself. This matches the paper's
	// measured behaviour (TOP2 at MLL ≈ sync cost still completes, at
	// poor but nonzero efficiency).
	ModeledTimeNS int64
	// ModeledBusyNS is the Σ over windows of the max per-engine busy
	// time, ignoring synchronization (a lower bound on ModeledTimeNS).
	ModeledBusyNS int64
	// SyncCostNS is C(N), the modeled cost of one window barrier.
	SyncCostNS int64
	// WallTime is the real elapsed time of the run on the host.
	WallTime time.Duration
	// MaxPending[e] is the high-water mark of engine e's event queue.
	MaxPending []int
	// Stopped reports that the run was cancelled via Sim.Stop before
	// reaching the configured horizon.
	Stopped bool
	// Err reports a transport failure that aborted a distributed run — the
	// coordinator/worker attribution is in the error chain (see dist
	// package). Always nil for in-process runs.
	Err error
}

// Sim is a configured parallel simulation.
type Sim struct {
	cfg     Config
	engines []*Engine
	stop    atomic.Bool

	// active[d] lists the engines holding outbox events for destination d
	// in the current window; activeN[d] is its length, reserved slot-by-
	// slot with atomic adds by producers and reset by consumer d between
	// the first two barriers. Registration order is racy, but the merge sorts
	// by the (at, src, seq) total order, so determinism is unaffected.
	active  [][]int32
	activeN []int32
}

// Stop requests cooperative cancellation: every engine exits at the next
// barrier (within one window of simulated time), Run returns with
// Stats.Stopped set, and partial statistics are reported. Safe to call
// from any goroutine, before or during Run; calling it more than once is a
// no-op.
func (s *Sim) Stop() { s.stop.Store(true) }

// New creates a simulation with cfg.Engines engines. Initial events are
// seeded by calling Engine.Schedule before Run (the kernels sit at t=0).
func New(cfg Config) (*Sim, error) {
	if cfg.Engines < 1 {
		return nil, fmt.Errorf("pdes: need ≥ 1 engine, got %d", cfg.Engines)
	}
	if cfg.Window <= 0 {
		return nil, fmt.Errorf("pdes: window must be positive, got %v", cfg.Window)
	}
	if cfg.End <= 0 {
		return nil, fmt.Errorf("pdes: end must be positive, got %v", cfg.End)
	}
	cfg.setDefaults()
	if cfg.Transport == nil {
		cfg.FirstEngine, cfg.HostedEngines = 0, cfg.Engines
	} else if cfg.HostedEngines == 0 {
		cfg.HostedEngines = cfg.Engines - cfg.FirstEngine
	}
	hostLo, hostHi := cfg.FirstEngine, cfg.FirstEngine+cfg.HostedEngines
	if hostLo < 0 || cfg.HostedEngines < 1 || hostHi > cfg.Engines {
		return nil, fmt.Errorf("pdes: hosted range [%d,%d) outside [0,%d)", hostLo, hostHi, cfg.Engines)
	}
	if cfg.Codec == nil && cfg.HostedEngines < cfg.Engines {
		return nil, fmt.Errorf("pdes: Transport with a partial hosted range requires a Codec")
	}
	s := &Sim{
		cfg:     cfg,
		active:  make([][]int32, cfg.Engines),
		activeN: make([]int32, cfg.Engines),
	}
	for i := 0; i < cfg.Engines; i++ {
		e := &Engine{
			id:     i,
			sim:    s,
			hostLo: hostLo,
			hostHi: hostHi,
		}
		e.outbox[0] = make([][]remoteEvent, cfg.Engines)
		e.outbox[1] = make([][]remoteEvent, cfg.Engines)
		s.active[i] = make([]int32, cfg.Engines)
		if inv := cfg.Invariants; inv != nil {
			e.k.SetInvariants(&des.KernelInvariants{Fail: func(err error) {
				inv.record(Violation{Kind: ViolationKernel, Engine: e.id, Src: -1, At: -1, WindowEnd: e.windowEnd, Detail: err.Error()})
			}})
		}
		s.engines = append(s.engines, e)
	}
	return s, nil
}

// Engine returns engine i.
func (s *Sim) Engine(i int) *Engine { return s.engines[i] }

// window is one barrier window: the simulated interval [start, end).
type window struct{ start, end des.Time }

// nextWindow is the barrier decision, taken after window cur when next is
// the earliest pending event anywhere in the simulation: the cell of the
// Window-wide grid that holds next, or the cell right after cur when next
// lies before it — the run fast-forwards over globally idle cells and never
// steps back. The last cell is cut at End, and the run is over once a
// window starts at or past End. Run takes it at every barrier, from its own
// engines' next-event times in-process or from the Transport's reply.
func (c *Config) nextWindow(cur window, next des.Time) window {
	start := max(cur.end, next-next%c.Window)
	return window{start, start + min(c.Window, max(c.End-start, 0))}
}

// Run executes the simulation to the configured horizon and returns stats.
// It blocks until every engine finishes. One window loop serves both modes:
// the engines in [FirstEngine, FirstEngine+HostedEngines) — all of them
// unless a Transport is configured — each compute a window, meet at a
// barrier, gather what the other hosted engines sent them, and meet again.
// Locally, the second barrier has published every next-event time and the
// stop flag. With a Transport, the leader instead trades the hosted
// engines' reduction and wire outboxes with the Transport for the global
// next-event time and stop (see exchange), and a third barrier publishes
// them. Either way each engine then merges its cross-worker events (none
// in-process) with its gather under the (at, src, seq) order, schedules the
// lot, and takes the next window from nextWindow.
func (s *Sim) Run() Stats {
	cfg := s.cfg
	first, hosted := cfg.FirstEngine, cfg.HostedEngines
	// The load series divides [0, span) into buckets equal slices of
	// simulated time, span being the horizon rounded up to a whole Window,
	// and counts a window's events in the slice that holds its start.
	cells := (cfg.End + cfg.Window - 1) / cfg.Window
	span, buckets := cells*cfg.Window, int(min(cells, seriesBuckets))
	series := make([][]uint64, buckets)
	for b := range series {
		series[b] = make([]uint64, cfg.Engines)
	}
	syncCost := cfg.Sync.SyncCost(cfg.Engines)
	// Per-window engine publications, guarded by the barrier and indexed by
	// LOCAL engine number (global id − first): busy time (for the
	// modeled-time reduction) and next pending event time (for idle-window
	// fast-forward).
	busyScratch := make([]int64, hosted)
	nextTimes := make([]des.Time, hosted)
	// Windows, Modeled*NS, Stopped and Err are owned by the leader (local
	// engine 0) during the run. On a worker, modeled time reduces over the
	// hosted engines only — a lower bound; the worker's Transport folds the
	// global reduction.
	stats := Stats{
		Engines:      cfg.Engines,
		Window:       cfg.Window,
		EngineEvents: make([]uint64, cfg.Engines),
		LoadSeries:   series,
		SyncCostNS:   syncCost,
		MaxPending:   make([]int, cfg.Engines),
	}
	if buckets > 0 {
		stats.BucketWidth = span / des.Time(buckets)
	}
	// stopScratch carries the leader's reading of the stop flag to every
	// engine so they all break at the same barrier (written between the
	// first two barriers, read after the second — the same synchronization
	// discipline as busyScratch).
	var stopScratch bool
	// The transport step's outcome: reply and stats.Err (and each hosted
	// engine's wireIn) are written by the leader between the second and
	// third barrier and read by every engine after the third. In-process
	// they stay zero.
	var reply WindowGo
	// Telemetry scratch, in the shape of the record it is published as and
	// allocated only when instrumentation is on: each engine fills its slot
	// with the window's event count, remote-send count, queue depth and
	// compute time, and the barrier wait and exchange time it observed at
	// the previous window; the leader stamps the window and publishes it.
	tel := cfg.Telemetry
	inv := cfg.Invariants
	var scratch telemetry.WindowRecord
	if tel != nil {
		scratch = telemetry.WindowRecord{
			Events: make([]uint64, hosted), RemoteSends: make([]uint64, hosted),
			ComputeNS: make([]int64, hosted), BarrierWaitNS: make([]int64, hosted),
			ExchangeNS: make([]int64, hosted), QueueDepth: make([]int, hosted),
		}
	}

	// The window barrier spins only where spinning can pay: in-process and
	// unpaced, and (the barrier checks it at every wait) while every live
	// engine of the process has a processor. A transport's third barrier
	// waits on the network and a paced run on the wall clock, so their
	// waiters park at once.
	liveEngines.Add(int64(hosted))
	defer liveEngines.Add(-int64(hosted))
	var spin time.Duration
	if cfg.Transport == nil && cfg.RealTimeFactor == 0 {
		spin = spinBudget
	}
	bar := newBarrier(hosted, spin)
	var wg sync.WaitGroup
	wg.Add(hosted)
	start := time.Now()
	for li := 0; li < hosted; li++ {
		e := s.engines[first+li]
		go func() {
			defer wg.Done()
			// lastWait and lastExch are this engine's barrier wait and
			// exchange-phase time at the previous window (published one
			// window late, inside the barrier-synchronized scratch
			// exchange); lastTick (leader only) marks the wall-clock time
			// of the previous published window.
			var lastWait, lastExch int64
			lastTick := start
			// wc counts *executed* windows (identical on every engine —
			// fast-forward decisions are global) and drives the outbox
			// parity swap. globalNext and stop are the barrier's outcome,
			// from which every engine takes the same next window.
			wc := 0
			var globalNext des.Time
			var stop bool
			for win := cfg.nextWindow(window{}, 0); win.start < cfg.End; win = cfg.nextWindow(win, globalNext) {
				e.p = wc & 1
				if wc >= 2 {
					// Reclaim the parity buffers filled two executed
					// windows ago; their consumers drained them before
					// that window's second barrier. Skipping the first
					// two windows preserves events enqueued before Run.
					for _, d := range e.dirty[e.p] {
						e.outbox[e.p][d] = e.outbox[e.p][d][:0]
					}
					e.dirty[e.p] = e.dirty[e.p][:0]
				}
				if cfg.RealTimeFactor > 0 {
					// Online pacing: never run ahead of the wall clock
					// (scaled by the slowdown factor).
					target := start.Add(time.Duration(float64(win.start) * cfg.RealTimeFactor))
					if d := time.Until(target); d > 0 {
						time.Sleep(d)
					}
				}
				e.windowEnd = win.end
				before := e.k.Processed()
				var computeStart time.Time
				if tel != nil {
					computeStart = time.Now()
				}
				e.k.RunUntil(win.end)
				e.winEvents = e.k.Processed() - before
				e.events += e.winEvents
				busyScratch[li] = int64(e.winEvents)*int64(cfg.EventCost) +
					int64(e.winRemote)*int64(remoteCost)
				series[win.start*des.Time(buckets)/span][e.id] += e.winEvents
				if tel != nil {
					scratch.Events[li] = e.winEvents
					scratch.RemoteSends[li] = e.winRemote
					scratch.BarrierWaitNS[li] = lastWait
					scratch.QueueDepth[li] = e.k.Pending()
					scratch.ComputeNS[li] = int64(time.Since(computeStart))
					scratch.ExchangeNS[li] = lastExch
				}
				e.winRemote = 0
				// First barrier: every hosted outbox and wire outbox is
				// complete.
				if tel != nil {
					t0 := time.Now()
					bar.Await()
					lastWait = int64(time.Since(t0))
				} else {
					bar.Await()
				}
				// Exchange phase: collect the events other hosted engines
				// addressed to this one, and publish the next local event
				// time — kernel plus gather, the gather not being scheduled
				// until any cross-worker events have joined it — for the
				// fast-forward decision.
				var exchStart time.Time
				if tel != nil {
					exchStart = time.Now()
				}
				incoming := e.incoming[:0]
				cnt := atomic.LoadInt32(&s.activeN[e.id])
				if inv != nil {
					s.invCheckGather(inv, e, win.end, s.active[e.id][:cnt])
				}
				for _, si := range s.active[e.id][:cnt] {
					incoming = append(incoming, s.engines[si].outbox[e.p][e.id]...)
				}
				localNext := e.k.NextEventTime()
				for i := range incoming {
					localNext = min(localNext, incoming[i].at)
				}
				nextTimes[li] = localNext
				// Encode what this engine sent to other workers, in parallel
				// with its peers (nothing in-process: every destination is
				// hosted).
				for i := range e.wireOut {
					ws := &e.wireOut[i]
					kind, payload, err := cfg.Codec.Encode(ws.re.eh)
					if err != nil {
						panic("pdes: unserializable remote event in distributed run: " + err.Error())
					}
					ws.re.eh = nil // the codec may reuse it now
					e.wireEnc = append(e.wireEnc, wire.Event{
						At: int64(ws.re.at), Src: ws.re.src, Dst: ws.dst,
						Seq: ws.re.seq, Kind: kind, Payload: payload,
					})
				}
				e.wireOut = e.wireOut[:0]
				// Reset my registration slot before the second barrier, so
				// next-window producers (who only write after the last one)
				// start from zero.
				atomic.StoreInt32(&s.activeN[e.id], 0)
				if tel != nil {
					lastExch = int64(time.Since(exchStart))
				}
				var maxBusy int64
				if li == 0 {
					// One engine reduces the window's modeled cost:
					// max(busiest engine, synchronization) — the barrier
					// allreduce overlaps with event processing.
					maxBusy = slices.Max(busyScratch)
					stats.Windows++
					stats.ModeledBusyNS += maxBusy
					if tel != nil {
						now := time.Now()
						scratch.StartNS, scratch.EndNS = int64(win.start), int64(win.end)
						scratch.WallNS, scratch.MaxBusyNS = int64(now.Sub(lastTick)), maxBusy
						lastTick = now
						tel.Publish(&scratch)
					}
					stats.ModeledTimeNS += max(maxBusy, syncCost)
					stopScratch = s.stop.Load()
				}
				// Second barrier: every engine's publications are visible.
				bar.Await()
				// Every engine derives the same global next event time and
				// stop from the published values.
				globalNext, stop = slices.Min(nextTimes), stopScratch
				if cfg.Transport != nil {
					// What is global here is only this worker's share: the
					// transport folds in every other worker's.
					if li == 0 {
						reply, stats.Err = s.exchange(WindowDone{
							Start: win.start, End: win.end, MaxBusy: maxBusy, LocalNext: globalNext, Stop: stop,
						})
					}
					bar.Await()
					globalNext, stop = reply.Next, reply.Stop
				}
				if stats.Err != nil {
					return
				}
				// Merge phase: order my cross-worker events (decoded by the
				// leader) with the gather under the global (at, src, seq) order,
				// schedule. (Outboxes are not cleared here — the parity swap
				// retires them, and the producer reclaims the buffers two
				// executed windows later.)
				if tel != nil {
					exchStart = time.Now()
				}
				incoming = append(incoming, e.wireIn...)
				e.wireIn = e.wireIn[:0]
				e.incoming = incoming
				slices.SortFunc(incoming, remoteCmp)
				if inv != nil {
					incoming = s.invCheckIncoming(inv, e, win.end, incoming)
					if inv.KernelPerWindow {
						s.invCheckKernel(inv, e, win.end)
					}
				}
				for i := range incoming {
					e.k.ScheduleEvent(incoming[i].at, incoming[i].eh)
				}
				if tel != nil {
					lastExch += int64(time.Since(exchStart))
				}
				if stop {
					if li == 0 {
						stats.Stopped = true
					}
					return
				}
				wc++
			}
		}()
	}
	wg.Wait()
	stats.WallTime = time.Since(start)
	for _, e := range s.engines[first : first+hosted] {
		stats.EngineEvents[e.id] = e.events
		stats.TotalEvents += e.events
		stats.RemoteEvents += e.remoteSends
		stats.MaxPending[e.id] = e.k.MaxPending()
	}
	if tel != nil {
		if !stats.Stopped && stats.Err == nil {
			tel.Finish(int64(cfg.End))
		}
		// End the live stream: subscribers see the channel close and know
		// the run is over (finished or cancelled).
		tel.Windows.Close()
	}
	return stats
}

// exchange is the transport step, run by the leader between the second
// and third barrier: it ships the window's control data with every hosted
// engine's encoded wire outbox, whose event times it folds into LocalNext,
// decodes each of the reply's events and hands it to its destination
// engine's wireIn. The other hosted engines wait at the third barrier
// meanwhile, so Decode may touch any hosted engine's state. The reply's
// Next is folded with LocalNext and the delivered events' times, so no
// reply can fast-forward past an event this worker holds. The reply is
// input from outside the process, so one the loop cannot act on — an event
// for an engine not hosted here, one the codec cannot decode, one dated
// before the window's end — is an error, like a failed Exchange.
func (s *Sim) exchange(done WindowDone) (WindowGo, error) {
	first, hosted := s.cfg.FirstEngine, s.cfg.HostedEngines
	lead := s.engines[first]
	for _, e := range s.engines[first+1 : first+hosted] {
		lead.wireEnc = append(lead.wireEnc, e.wireEnc...)
		e.wireEnc = e.wireEnc[:0]
	}
	for i := range lead.wireEnc {
		done.LocalNext = min(done.LocalNext, des.Time(lead.wireEnc[i].At))
	}
	done.Events = lead.wireEnc
	g, err := s.cfg.Transport.Exchange(done)
	lead.wireEnc = lead.wireEnc[:0]
	if err != nil {
		return g, err
	}
	g.Next = min(g.Next, done.LocalNext)
	for _, ev := range g.Events {
		if int(ev.Dst) < first || int(ev.Dst) >= first+hosted {
			return g, fmt.Errorf("%w: engine %d, hosted [%d,%d)", ErrMisroutedEvent, ev.Dst, first, first+hosted)
		}
		if at := des.Time(ev.At); at < done.End {
			return g, fmt.Errorf("%w: at %v, window [%v, %v)", ErrEventInPast, at, done.Start, done.End)
		}
		eh, err := s.cfg.Codec.Decode(int(ev.Dst), ev.Kind, ev.Payload)
		if err != nil {
			return g, fmt.Errorf("%w: kind %d for engine %d: %w", ErrUndecodableEvent, ev.Kind, ev.Dst, err)
		}
		e := s.engines[ev.Dst]
		e.wireIn = append(e.wireIn, remoteEvent{at: des.Time(ev.At), eh: eh, seq: ev.Seq, src: ev.Src})
		g.Next = min(g.Next, des.Time(ev.At))
	}
	return g, nil
}
