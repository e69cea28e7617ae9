package runctl

import (
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"massf/internal/agent"
	"massf/internal/experiments"
)

// TestFinishedIngestRunReleasesSim checks that a run which had a Sim lets
// it go however it ends — done, cancelled while running, killed by its
// wall-clock or memory limit, or done after live ingest — while the run
// stays in the table and Info keeps being served: the daemon keeps every
// finished run, and a run that kept its Sim would keep its whole
// simulation. A finalizer sits on a leaf the Sim alone holds (its per-node
// event counters), since a finalizer on the Sim itself, which its pending
// events refer back to, would keep it alive. Every run is held at the
// gate, so no row waits on a pace.
func TestFinishedIngestRunReleasesSim(t *testing.T) {
	for _, tc := range []struct {
		name string
		// set adjusts the spec; end, if set, drives the run held at the
		// gate to its end. state and err are what the ended run reports.
		set   func(*Spec)
		end   func(t *testing.T, h heldRun)
		state State
		err   string
	}{
		{name: "done", end: func(t *testing.T, h heldRun) { h.release() }, state: StateDone},
		{name: "cancelled while running", end: func(t *testing.T, h heldRun) {
			if _, from, ok := h.m.Cancel(h.r.ID); !ok || from != StateRunning {
				t.Fatalf("cancel found=%v from %s, want a running run", ok, from)
			}
		}, state: StateCancelled},
		{name: "wall limit", set: func(s *Spec) { s.WallLimitMS = 50 }, state: StateFailed, err: "wall-clock limit"},
		{name: "memory limit", set: func(s *Spec) { s.MemLimitMB = 1 }, state: StateFailed, err: "memory limit"},
		{name: "ingest", set: func(s *Spec) { s.Ingest = true }, end: ingestTen, state: StateDone},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := agent.NewIngest(0)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go g.Serve(ln)
			defer g.Close()
			m := NewManagerOpts(Options{Workers: 1, RingCap: 64, Ingest: g})
			release := gateRuns(m)
			defer shutdownMgr(t, m)
			freed := make(chan struct{})
			gate := m.beforeRun
			m.beforeRun = func(r *Run, p *experiments.Prepared) {
				gate(r, p)
				leaf := (*uint64)(reflect.ValueOf(p.Sim).Elem().FieldByName("nodeEvents").UnsafePointer())
				runtime.SetFinalizer(leaf, func(*uint64) { close(freed) })
			}
			spec := testSpec(tc.name, 7, 1)
			if tc.set != nil {
				tc.set(&spec)
			}
			r, err := m.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			if tc.end != nil {
				waitRun(t, r, 30*time.Second, func(i Info) bool { return i.State == StateRunning })
				tc.end(t, heldRun{m, r, release, ln.Addr().String()})
			}
			before := waitRun(t, r, 30*time.Second, func(i Info) bool { return i.State.Terminal() })
			if before.State != tc.state || !strings.Contains(before.Error, tc.err) {
				t.Fatalf("run ended %s (err=%q), want %s naming %q", before.State, before.Error, tc.state, tc.err)
			}

			deadline := time.Now().Add(10 * time.Second)
			for collected := false; !collected; {
				runtime.GC()
				select {
				case <-freed:
					collected = true
				case <-time.After(10 * time.Millisecond):
					if time.Now().After(deadline) {
						t.Fatal("an ended run still holds its simulation")
					}
				}
			}
			if _, ok := m.Get(r.ID); !ok {
				t.Fatal("ended run left the run table")
			}
			after := r.Info()
			if after.State != before.State || after.Error != before.Error || after.Windows != before.Windows {
				t.Errorf("Info after the simulation was collected %+v, before %+v", after, before)
			}
			if (after.Agent == nil) != (before.Agent == nil) || after.Agent != nil && *after.Agent != *before.Agent {
				t.Errorf("agent counters %+v after the simulation was collected, %+v before", after.Agent, before.Agent)
			}
		})
	}
}

// heldRun is a run held at the gate of its Manager, whose ingest plane
// listens at addr.
type heldRun struct {
	m       *Manager
	r       *Run
	release func()
	addr    string
}

// ingestTen queues ten agent messages while the run is held at the gate,
// so all of them inject in the windows after it, then lets the run go.
func ingestTen(t *testing.T, h heldRun) {
	cl, err := agent.Dial(h.addr, h.r.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 10; i++ {
		if err := cl.Send(0, 1, []byte("ping")); err != nil {
			t.Fatal(err)
		}
	}
	waitRun(t, h.r, 30*time.Second, func(i Info) bool { return i.Agent != nil && i.Agent.Sent == 10 })
	h.release()
	waitRun(t, h.r, 30*time.Second, func(i Info) bool { return i.Agent != nil && i.Agent.Injected == 10 })
}
