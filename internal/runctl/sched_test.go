package runctl

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"massf/internal/des"
	"massf/internal/experiments"
	"massf/internal/runspec"
)

// waitRun polls a run until want accepts its Info (direct-manager variant
// of server_test.go's waitState).
func waitRun(t *testing.T, r *Run, timeout time.Duration, want func(Info) bool) Info {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		info := r.Info()
		if want(info) {
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s stuck in state %s (err=%q)", r.ID, info.State, info.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// gateAt is the simulated time at which a gated run is held: late enough
// that the windows before it carry traffic, and inside every horizon the
// tests give a gated run.
const gateAt = 200 * des.Millisecond

// gateRuns holds every run m dispatches from now on at simulated time
// gateAt, with an event on engine 0 that blocks until release is called or
// the run's context ends (a cancel, a limit, Shutdown). A held run reads
// running, every window before the gate is already published, and it burns
// no CPU. The event adds one to the run's event count, so the golden and
// count-exact tests run ungated. Call it before the first Submit, and
// release at most once.
func gateRuns(m *Manager) (release func()) {
	open := make(chan struct{})
	m.beforeRun = func(r *Run, p *experiments.Prepared) {
		p.Sim.Engine(0).Schedule(gateAt, func(des.Time) {
			select {
			case <-open:
			case <-r.ctx.Done():
			}
		})
	}
	return func() { close(open) }
}

func shutdownMgr(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestSchedulerPriorityOrder pins the class ordering: with the single
// pool slot occupied, a high-priority submission admitted AFTER a
// low-priority one still dispatches first when the slot frees.
func TestSchedulerPriorityOrder(t *testing.T) {
	m := NewManagerOpts(Options{Workers: 1, RingCap: 256})
	gateRuns(m)
	defer shutdownMgr(t, m)

	blocker, err := m.Submit(testSpec("blocker", 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	waitRun(t, blocker, 10*time.Second, func(i Info) bool { return i.State == StateRunning })

	lowSpec := testSpec("low", 2, 1)
	lowSpec.Priority = runspec.PriorityLow
	low, err := m.Submit(lowSpec)
	if err != nil {
		t.Fatal(err)
	}
	highSpec := testSpec("high", 3, 1)
	highSpec.Priority = runspec.PriorityHigh
	high, err := m.Submit(highSpec)
	if err != nil {
		t.Fatal(err)
	}
	if hi := high.Info(); hi.Priority != runspec.PriorityHigh {
		t.Fatalf("priority not echoed: %+v", hi.Priority)
	}

	// Free the slot: the later-admitted high run must beat the low one.
	m.Cancel(blocker.ID)
	waitRun(t, high, 30*time.Second, func(i Info) bool { return i.State == StateRunning })
	if st := low.State(); st != StateQueued {
		t.Fatalf("low-priority run in state %s while high dispatched, want queued", st)
	}
}

// TestSchedulerQueueFull pins the bounded-admission contract: beyond
// QueueDepth waiting runs, Submit refuses with ErrQueueFull.
func TestSchedulerQueueFull(t *testing.T) {
	m := NewManagerOpts(Options{Workers: 1, RingCap: 256, QueueDepth: 1})
	gateRuns(m)
	defer shutdownMgr(t, m)

	running, err := m.Submit(testSpec("running", 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	waitRun(t, running, 10*time.Second, func(i Info) bool { return i.State == StateRunning })
	if _, err := m.Submit(testSpec("waiting", 2, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(testSpec("rejected", 3, 1)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit past the queue bound: err=%v, want ErrQueueFull", err)
	}
}

// TestSchedulerWeightNoBackfill pins two contracts at once: an
// over-asking weight is clamped to the pool size, and a light run never
// backfills past a heavy queue head that does not fit yet — strict
// priority order, so heavy runs cannot be starved.
func TestSchedulerWeightNoBackfill(t *testing.T) {
	m := NewManagerOpts(Options{Workers: 2, RingCap: 256})
	gateRuns(m)
	defer shutdownMgr(t, m)

	blocker, err := m.Submit(testSpec("blocker", 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	waitRun(t, blocker, 10*time.Second, func(i Info) bool { return i.State == StateRunning })

	heavySpec := testSpec("heavy", 2, 1)
	heavySpec.Weight = 5 // asks for more than the pool; clamps to 2
	heavy, err := m.Submit(heavySpec)
	if err != nil {
		t.Fatal(err)
	}
	if w := heavy.Info().Weight; w != 2 {
		t.Fatalf("weight %d after admission, want clamped to pool size 2", w)
	}
	light, err := m.Submit(testSpec("light", 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	// One slot is free, but the weight-2 head does not fit — the light run
	// behind it must NOT be dispatched into that slot. Submit dispatches
	// under the manager's lock, so the states are final when it returns.
	if st := heavy.State(); st != StateQueued {
		t.Fatalf("heavy run in state %s with one free slot, want queued", st)
	}
	if st := light.State(); st != StateQueued {
		t.Fatalf("light run backfilled past the blocked head (state %s)", st)
	}

	// Both slots free: the heavy head dispatches, the light run keeps
	// waiting behind it (no remaining capacity).
	m.Cancel(blocker.ID)
	waitRun(t, heavy, 30*time.Second, func(i Info) bool { return i.State == StateRunning })
	if st := light.State(); st != StateQueued {
		t.Fatalf("light run in state %s while the pool is full, want queued", st)
	}
}

// TestSchedulerWallLimit pins the resource-limit path: a run held at the
// gate past its 50 ms wall-clock bound is stopped through cancellation but
// ends failed, with the limit named in its error.
func TestSchedulerWallLimit(t *testing.T) {
	m := NewManagerOpts(Options{Workers: 1, RingCap: 256})
	gateRuns(m)
	defer shutdownMgr(t, m)

	spec := testSpec("hog", 1, 1)
	spec.WallLimitMS = 50
	r, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	info := waitRun(t, r, 60*time.Second, func(i Info) bool { return i.State.Terminal() })
	if info.State != StateFailed {
		t.Fatalf("limited run ended %s (err=%q), want failed", info.State, info.Error)
	}
	if !strings.Contains(info.Error, "wall-clock limit") {
		t.Fatalf("failure does not name the limit: %q", info.Error)
	}
	if info.CancelledFrom != "" {
		t.Fatalf("limit failure reports cancelled_from=%q, want empty", info.CancelledFrom)
	}
}

// TestSchedulerMemLimit drives the heap sampler: a bound far below the
// test process's live heap trips on the first 50 ms sample of a run held
// at the gate.
func TestSchedulerMemLimit(t *testing.T) {
	m := NewManagerOpts(Options{Workers: 1, RingCap: 256})
	gateRuns(m)
	defer shutdownMgr(t, m)

	spec := testSpec("oom", 1, 1)
	spec.MemLimitMB = 1 // any Go process holds more than 1 MiB live
	r, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	info := waitRun(t, r, 60*time.Second, func(i Info) bool { return i.State.Terminal() })
	if info.State != StateFailed || !strings.Contains(info.Error, "memory limit") {
		t.Fatalf("mem-limited run: state=%s err=%q", info.State, info.Error)
	}
}

// TestSchedulerSetupCache pins the warm-submit path: a repeat submission
// with the same scenario content key reuses the memoized build and
// reports it (Info.build_cached), instead of regenerating topology and
// routing.
func TestSchedulerSetupCache(t *testing.T) {
	m := NewManagerOpts(Options{Workers: 1, RingCap: 256})
	defer shutdownMgr(t, m)

	cold, err := m.Submit(testSpec("cold", 7, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	ci := waitRun(t, cold, 30*time.Second, func(i Info) bool { return i.State.Terminal() })
	if ci.State != StateDone {
		t.Fatalf("cold run ended %s (err=%q)", ci.State, ci.Error)
	}
	if ci.BuildCached {
		t.Fatal("first submission of this scenario claims a cached build")
	}

	// Different name and engine count, same scenario content key: the
	// per-run knobs are overlaid on the shared build, not part of it.
	warmSpec := testSpec("warm", 7, 0.3)
	warmSpec.Engines = 4
	warm, err := m.Submit(warmSpec)
	if err != nil {
		t.Fatal(err)
	}
	wi := waitRun(t, warm, 30*time.Second, func(i Info) bool { return i.State.Terminal() })
	if wi.State != StateDone {
		t.Fatalf("warm run ended %s (err=%q)", wi.State, wi.Error)
	}
	if !wi.BuildCached {
		t.Fatal("repeat submission did not reuse the memoized build")
	}
	if wi.Report == nil || wi.Engines != 4 {
		t.Fatalf("warm run did not run under its own knobs: %+v", wi)
	}

	// A different seed is a different scenario — no false sharing.
	other, err := m.Submit(testSpec("other", 8, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	oi := waitRun(t, other, 30*time.Second, func(i Info) bool { return i.State.Terminal() })
	if oi.State != StateDone || oi.BuildCached {
		t.Fatalf("different-seed run: state=%s cached=%v, want done/false", oi.State, oi.BuildCached)
	}
}
