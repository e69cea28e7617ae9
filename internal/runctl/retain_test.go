package runctl

import (
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"

	"massf/internal/agent"
)

// TestFinishedIngestRunReleasesSim checks that a finished ingest run keeps
// only its agent's final counters, not the agent: the daemon keeps every
// finished run in its table, and the agent reaches back into the run's
// simulation. A finalizer sits on a leaf the Sim alone holds (its
// per-node event counters), since a finalizer on the Sim itself, which
// its pending events refer back to, would keep it alive; it must run while
// the run is still in the table, and Info's agent counters must read the
// same before and after. The run is held at the gate until the agent has
// queued every message, so all of them inject in the windows after it.
func TestFinishedIngestRunReleasesSim(t *testing.T) {
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
	spec := testSpec("ingest", 7, 1)
	spec.Ingest = true
	r, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitRun(t, r, 30*time.Second, func(i Info) bool { return i.State == StateRunning })

	freed := make(chan struct{})
	r.mu.Lock()
	sim := reflect.ValueOf(r.agent).Elem().FieldByName("sim").Elem()
	r.mu.Unlock()
	leaf := (*uint64)(sim.FieldByName("nodeEvents").UnsafePointer())
	runtime.SetFinalizer(leaf, func(*uint64) { close(freed) })
	sim, leaf = reflect.Value{}, nil

	cl, err := agent.Dial(ln.Addr().String(), r.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := cl.Send(0, 1, []byte("ping")); err != nil {
			t.Fatal(err)
		}
	}
	waitRun(t, r, 30*time.Second, func(i Info) bool { return i.Agent != nil && i.Agent.Sent == 10 })
	release()
	waitRun(t, r, 30*time.Second, func(i Info) bool { return i.Agent != nil && i.Agent.Injected == 10 })
	cl.Close()
	before := waitRun(t, r, 30*time.Second, func(i Info) bool { return i.State.Terminal() })
	if before.State != StateDone || before.Agent == nil || before.Agent.Sent != 10 || before.Agent.Injected != 10 {
		t.Fatalf("run ended %s with agent counters %+v, want done after 10 sends and injections", before.State, before.Agent)
	}

	deadline := time.Now().Add(10 * time.Second)
	for collected := false; !collected; {
		runtime.GC()
		select {
		case <-freed:
			collected = true
		case <-time.After(10 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatal("a finished ingest run still holds its simulation")
			}
		}
	}
	if _, ok := m.Get(r.ID); !ok {
		t.Fatal("finished run left the run table")
	}
	if after := r.Info(); after.Agent == nil || *after.Agent != *before.Agent {
		t.Errorf("agent counters %+v after the simulation was collected, %+v before", after.Agent, before.Agent)
	}
}
