package bgp

import (
	"testing"
	"testing/quick"

	"massf/internal/mabrite"
	"massf/internal/model"
)

func mabriteNet(t *testing.T, ases int, seed int64) *model.Network {
	t.Helper()
	net, err := mabrite.Generate(mabrite.Options{ASes: ases, RoutersPerAS: 3, Hosts: 0, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestSimulatorMatchesConverge(t *testing.T) {
	net := mabriteNet(t, 25, 1)
	batch := converge(net)
	s := NewSimulator(net)
	for as := range net.ASes {
		s.Announce(int32(as))
	}
	if s.Run() == 0 {
		t.Fatal("convergence exchanged no BGP messages")
	}
	for a := int32(0); a < 25; a++ {
		for d := int32(0); d < 25; d++ {
			pa, pb := batch.Path(a, d), s.RIB().Path(a, d)
			if (pa == nil) != (pb == nil) || (pa != nil && !pathsEqual(pa, pb)) {
				t.Fatalf("incremental and batch converge differ at %d→%d: %v vs %v", a, d, pa, pb)
			}
		}
	}
}

func TestAnnounceWithdrawIdempotent(t *testing.T) {
	net := mabriteNet(t, 10, 2)
	s := NewSimulator(net)
	s.Announce(3)
	s.Announce(3) // no-op
	first := s.Run()
	if first == 0 {
		t.Fatal("announce produced no messages")
	}
	s.Withdraw(3)
	s.Withdraw(3) // no-op
	s.Run()
	s.Withdraw(3) // withdrawn already
	if s.Run() != 0 {
		t.Error("double withdraw produced messages")
	}
}

func TestBeaconReachabilityFlips(t *testing.T) {
	net := mabriteNet(t, 20, 3)
	// Pick a stub AS as the beacon (realistic: beacons are stub prefixes).
	beacon := int32(-1)
	for i := range net.ASes {
		if net.ASes[i].Class == model.ASStub {
			beacon = int32(i)
			break
		}
	}
	if beacon < 0 {
		t.Skip("no stub AS")
	}
	cycles := RunBeacon(net, beacon, 3)
	if len(cycles) != 3 {
		t.Fatalf("cycles = %d", len(cycles))
	}
	for i, c := range cycles {
		if c.ReachableAfterWithdraw != 0 {
			t.Errorf("cycle %d: %d ASes still reach the withdrawn prefix", i, c.ReachableAfterWithdraw)
		}
		if c.ReachableAfterAnnounce != len(net.ASes)-1 {
			t.Errorf("cycle %d: only %d of %d ASes reach the announced prefix",
				i, c.ReachableAfterAnnounce, len(net.ASes)-1)
		}
		if c.AnnounceMsgs == 0 || c.WithdrawMsgs == 0 {
			t.Errorf("cycle %d: empty bursts %+v", i, c)
		}
	}
	// Steady state: cycles after the first behave identically.
	if cycles[1] != cycles[2] {
		t.Errorf("beacon cycles not steady: %+v vs %+v", cycles[1], cycles[2])
	}
}

func TestWithdrawalPathHunting(t *testing.T) {
	// Withdrawals should cost at least as many messages as announcements
	// in a richly connected graph (path hunting explores alternatives).
	net := mabriteNet(t, 40, 4)
	beacon := int32(0)
	for i := range net.ASes {
		if net.ASes[i].Class == model.ASStub {
			beacon = int32(i)
			break
		}
	}
	cycles := RunBeacon(net, beacon, 2)
	last := cycles[len(cycles)-1]
	if last.WithdrawMsgs < last.AnnounceMsgs {
		t.Logf("note: withdrawals (%d msgs) cheaper than announcements (%d) on this topology",
			last.WithdrawMsgs, last.AnnounceMsgs)
	}
	if last.WithdrawMsgs == 0 {
		t.Error("no withdrawal messages")
	}
}

func TestCompareIdenticalRIBs(t *testing.T) {
	net := mabriteNet(t, 15, 5)
	rib := converge(net)
	cmp := Compare(rib, rib)
	if cmp.Pairs == 0 {
		t.Fatal("no pairs compared")
	}
	if cmp.SamePath != cmp.Pairs || cmp.SameNextHop != cmp.Pairs {
		t.Errorf("self comparison not identical: %+v", cmp)
	}
	if cmp.InflationA != 1.0 {
		t.Errorf("self inflation = %v, want 1", cmp.InflationA)
	}
	if cmp.OnlyA != 0 || cmp.OnlyB != 0 {
		t.Errorf("self comparison has exclusive pairs: %+v", cmp)
	}
}

func TestPolicyPathInflation(t *testing.T) {
	// The validation study: policy routing versus unconstrained shortest
	// AS paths. Policy paths can never be shorter, and on hierarchical
	// topologies they are measurably longer on average.
	net := mabriteNet(t, 40, 6)
	policy := converge(net)
	shortest := ShortestPathRIB(net)
	cmp := Compare(policy, shortest)
	if cmp.Pairs == 0 {
		t.Fatal("nothing compared")
	}
	if cmp.InflationA < 1.0 {
		t.Errorf("policy paths shorter than shortest paths: inflation %v", cmp.InflationA)
	}
	if cmp.OnlyA != 0 {
		t.Errorf("policy RIB reaches %d pairs the shortest-path RIB cannot", cmp.OnlyA)
	}
}

func TestShortestPathRIBIsShortest(t *testing.T) {
	net := mabriteNet(t, 12, 7)
	rib := ShortestPathRIB(net)
	// Spot check: path lengths equal BFS distance.
	for src := int32(0); src < 12; src++ {
		for dst := int32(0); dst < 12; dst++ {
			if src == dst {
				continue
			}
			p := rib.Path(src, dst)
			if p == nil {
				t.Fatalf("no shortest path %d→%d in a connected AS graph", src, dst)
			}
			if p[len(p)-1] != dst {
				t.Fatalf("path %d→%d = %v does not end at dst", src, dst, p)
			}
			// Verify adjacency of consecutive path elements.
			cur := src
			for _, next := range p {
				if _, ok := net.ASes[cur].NeighborTo(next); !ok {
					t.Fatalf("path %v uses non-adjacent step %d→%d", p, cur, next)
				}
				cur = next
			}
		}
	}
}

// Property: after any flap sequence the simulator's state equals a fresh
// batch convergence (the protocol has no hysteresis at quiescence).
func TestQuickFlapConvergesToSameState(t *testing.T) {
	f := func(seed int64, flapRaw uint8) bool {
		net, err := mabrite.Generate(mabrite.Options{ASes: 12, RoutersPerAS: 2, Hosts: 0, Seed: seed})
		if err != nil {
			return false
		}
		s := NewSimulator(net)
		for as := range net.ASes {
			s.Announce(int32(as))
		}
		s.Run()
		flap := int32(flapRaw) % 12
		for i := 0; i < 3; i++ {
			s.Withdraw(flap)
			s.Run()
			s.Announce(flap)
			s.Run()
		}
		batch := converge(net)
		for a := int32(0); a < 12; a++ {
			for d := int32(0); d < 12; d++ {
				pa, pb := batch.Path(a, d), s.RIB().Path(a, d)
				if (pa == nil) != (pb == nil) || (pa != nil && !pathsEqual(pa, pb)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkBeaconCycle(b *testing.B) {
	net, err := mabrite.Generate(mabrite.Options{ASes: 100, RoutersPerAS: 2, Hosts: 0, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunBeacon(net, 5, 1)
	}
}
