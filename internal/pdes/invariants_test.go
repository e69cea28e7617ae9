package pdes

import (
	"strings"
	"testing"

	"massf/internal/cluster"
	"massf/internal/des"
)

func newInvSim(t *testing.T, engines int, window, end des.Time) (*Sim, *Invariants) {
	t.Helper()
	inv := &Invariants{KernelPerWindow: true}
	s, err := New(Config{
		Engines: engines, Window: window, End: end,
		Sync: cluster.Fixed{CostNS: 1000}, Invariants: inv,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, inv
}

// TestCleanRunNoViolations: a multi-engine ping-pong workload with legal
// lookahead produces zero violations even with every check enabled, and the
// partition-independent stats match an identical run without hooks.
func TestCleanRunNoViolations(t *testing.T) {
	run := func(inv *Invariants) Stats {
		cfg := Config{
			Engines: 4, Window: des.Millisecond, End: 50 * des.Millisecond,
			Sync: cluster.Fixed{CostNS: 1000}, Invariants: inv,
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Each engine volleys events to its neighbour one window ahead.
		var volley func(e *Engine) des.Handler
		volley = func(e *Engine) des.Handler {
			return func(now des.Time) {
				dst := (e.id + 1) % cfg.Engines
				at := now + cfg.Window + 100*des.Microsecond
				if at < cfg.End {
					e.ScheduleRemoteEvent(dst, at, volley(s.Engine(dst)))
				}
			}
		}
		for i := 0; i < cfg.Engines; i++ {
			e := s.Engine(i)
			e.Schedule(des.Time(i)*50*des.Microsecond, volley(e))
		}
		return s.Run()
	}

	inv := &Invariants{KernelPerWindow: true}
	checked := run(inv)
	plain := run(nil)
	if v := inv.Violations(); len(v) != 0 {
		t.Fatalf("clean run recorded violations: %v", v)
	}
	if checked.TotalEvents != plain.TotalEvents || checked.RemoteEvents != plain.RemoteEvents {
		t.Fatalf("invariant hooks changed behaviour: events %d/%d remote %d/%d",
			checked.TotalEvents, plain.TotalEvents, checked.RemoteEvents, plain.RemoteEvents)
	}
	if checked.TotalEvents == 0 {
		t.Fatal("workload executed no events")
	}
}

// TestInjectedLookaheadViolationDetected: an event shipped inside its send
// window (via the test-only injection hook) is detected at the receiving
// engine, reported with the offending window, engine and (at, src, seq)
// triple, and dropped — the run completes instead of corrupting the
// receiver's past.
func TestInjectedLookaheadViolationDetected(t *testing.T) {
	s, inv := newInvSim(t, 2, des.Millisecond, 10*des.Millisecond)
	ran := false
	// Inside window 0 on engine 0, ship an event to engine 1 timestamped
	// before window 0's end — exactly the bug lookahead forbids.
	s.Engine(0).Schedule(100*des.Microsecond, func(now des.Time) {
		s.Engine(0).InjectLookaheadViolation(1, 500*des.Microsecond, func(des.Time) { ran = true })
	})
	stats := s.Run()
	if ran {
		t.Error("lookahead-violating event executed; it must be dropped")
	}
	if stats.Windows == 0 {
		t.Error("run did not complete")
	}
	vs := inv.Violations()
	if len(vs) != 1 {
		t.Fatalf("got %d violations, want 1: %v", len(vs), vs)
	}
	v := vs[0]
	if v.Kind != ViolationLookahead {
		t.Errorf("Kind = %v, want lookahead", v.Kind)
	}
	if v.Engine != 1 || v.Src != 0 {
		t.Errorf("violation at engine %d src %d, want engine 1 src 0", v.Engine, v.Src)
	}
	if v.At != 500*des.Microsecond || v.WindowEnd != des.Millisecond {
		t.Errorf("violation at=%v windowEnd=%v, want 500µs/1ms", v.At, v.WindowEnd)
	}
	for _, part := range []string{"lookahead", "window ending 1.000ms", "engine 1", "src=0", "500.000µs"} {
		if !strings.Contains(v.String(), part) {
			t.Errorf("violation report %q missing %q", v.String(), part)
		}
	}
}

// TestInvCheckIncomingDrainOrder: the drain-order audit flags a batch that
// is not in strictly increasing (at, src, seq) order.
func TestInvCheckIncomingDrainOrder(t *testing.T) {
	s, inv := newInvSim(t, 2, des.Millisecond, 2*des.Millisecond)
	e := s.Engine(1)
	wEnd := des.Millisecond
	h := des.Handler(func(des.Time) {})
	batch := []remoteEvent{
		{at: 3 * des.Millisecond, src: 0, seq: 1, eh: h},
		{at: 2 * des.Millisecond, src: 0, seq: 0, eh: h}, // out of order
		{at: 2 * des.Millisecond, src: 0, seq: 0, eh: h}, // duplicate
	}
	kept := s.invCheckIncoming(inv, e, wEnd, batch)
	if len(kept) != 3 {
		t.Errorf("kept %d events, want 3 (drain-order violations are reported, not dropped)", len(kept))
	}
	vs := inv.Violations()
	if len(vs) != 2 {
		t.Fatalf("got %d violations, want 2: %v", len(vs), vs)
	}
	for _, v := range vs {
		if v.Kind != ViolationDrainOrder {
			t.Errorf("Kind = %v, want drain-order", v.Kind)
		}
	}
}

// TestInvCheckGatherParity: the parity audit flags duplicate registrations
// and registered sources with empty buffers.
func TestInvCheckGatherParity(t *testing.T) {
	s, inv := newInvSim(t, 3, des.Millisecond, 2*des.Millisecond)
	e := s.Engine(0)
	// Fabricate a corrupt registration: source 1 twice, source 2 with an
	// empty outbox. Source 1 gets a real event so only its duplicate and
	// source 2's emptiness are flagged.
	s.engines[1].outbox[e.p][0] = append(s.engines[1].outbox[e.p][0], remoteEvent{at: des.Millisecond})
	s.invCheckGather(inv, e, 5*des.Millisecond, []int32{1, 1, 2})
	vs := inv.Violations()
	if len(vs) != 2 {
		t.Fatalf("got %d violations, want 2: %v", len(vs), vs)
	}
	for _, v := range vs {
		if v.Kind != ViolationExchangeParity {
			t.Errorf("Kind = %v, want exchange-parity", v.Kind)
		}
		if v.WindowEnd != 5*des.Millisecond || v.Engine != 0 {
			t.Errorf("violation in the window ending %v engine %d, want 5ms engine 0", v.WindowEnd, v.Engine)
		}
	}
}
