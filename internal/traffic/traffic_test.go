package traffic

import (
	"testing"

	"massf/internal/cluster"
	"massf/internal/des"
	"massf/internal/model"
	"massf/internal/netsim"
	"massf/internal/routing/interdomain"
	"massf/internal/topology"
)

// testNet builds a small flat network and returns the sim plus its hosts.
func testNet(t *testing.T, routers, hosts, engines int, part []int32, end des.Time) (*netsim.Sim, []model.NodeID) {
	t.Helper()
	net, err := topology.GenerateFlat(topology.FlatOptions{Routers: routers, Hosts: hosts, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	// Single-engine tests never cut a link, so the window can be large;
	// multi-engine callers pass a latency-aware partition and window.
	s, err := netsim.New(netsim.Config{
		Net: net, Routes: interdomain.New(net), Part: part, Engines: engines,
		Window: 10 * des.Millisecond, End: end, Sync: cluster.Fixed{CostNS: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	var hs []model.NodeID
	for i := range net.Nodes {
		if net.Nodes[i].Kind == model.Host {
			hs = append(hs, model.NodeID(i))
		}
	}
	return s, hs
}

func TestHTTPGeneratesTraffic(t *testing.T) {
	s, hosts := testNet(t, 40, 12, 1, nil, 20*des.Second)
	stats := InstallHTTP(s, HTTPConfig{
		Clients: hosts[:8], Servers: hosts[8:],
		MeanGap: des.Second, MeanFileBytes: 20_000, Seed: 1,
	})
	res := s.Run()
	if stats.TotalRequests() == 0 {
		t.Fatal("no HTTP requests issued")
	}
	if stats.TotalResponses() == 0 {
		t.Fatal("no HTTP responses completed")
	}
	// Each client averages roughly one request per think-time+transfer.
	if got := stats.TotalResponses(); got < 40 {
		t.Errorf("responses = %d, want ≥ 40 over 20s × 8 clients at 1s gaps", got)
	}
	if res.FlowsCompleted == 0 || res.DeliveredBits == 0 {
		t.Error("no flow completions recorded by the simulator")
	}
}

func TestHTTPNoServers(t *testing.T) {
	s, hosts := testNet(t, 10, 3, 1, nil, des.Second)
	stats := InstallHTTP(s, HTTPConfig{Clients: hosts, Servers: nil, MeanGap: des.Second})
	s.Run()
	if stats.TotalRequests() != 0 {
		t.Error("requests issued with no servers")
	}
}

// TestHTTPDeterministic: one seed gives one workload, built once or again.
func TestHTTPDeterministic(t *testing.T) {
	run := func() (uint64, uint64) {
		s, hosts := testNet(t, 30, 10, 1, nil, 10*des.Second)
		stats := InstallHTTP(s, HTTPConfig{Clients: hosts[:6], Servers: hosts[6:], MeanGap: des.Second, Seed: 3})
		res := s.Run()
		return stats.TotalResponses(), res.TotalEvents
	}
	wantResp, wantEvents := run()
	for i := 0; i < 2; i++ {
		if resp, events := run(); resp != wantResp || events != wantEvents {
			t.Errorf("build %d: %d responses and %d events, want %d and %d", i+2, resp, events, wantResp, wantEvents)
		}
	}
}

func TestWorkflowValidate(t *testing.T) {
	h := model.NodeID(0)
	cases := []struct {
		name string
		w    Workflow
		ok   bool
	}{
		{"empty", Workflow{Name: "e"}, false},
		{"single", Workflow{Name: "s", Tasks: []Task{{Host: h}}}, true},
		{"chain", Workflow{Name: "c", Tasks: []Task{{Host: h, Succ: []int{1}}, {Host: h}}}, true},
		{"self-loop", Workflow{Name: "l", Tasks: []Task{{Host: h, Succ: []int{0}}}}, false},
		{"out-of-range", Workflow{Name: "o", Tasks: []Task{{Host: h, Succ: []int{5}}}}, false},
		{"two-sinks", Workflow{Name: "t", Tasks: []Task{{Host: h, Succ: []int{1}}, {Host: h}, {Host: h}}}, false},
		{"cycle", Workflow{Name: "y", Tasks: []Task{{Host: h, Succ: []int{1}}, {Host: h, Succ: []int{2, 3}}, {Host: h, Succ: []int{1}}, {Host: h}}}, false},
	}
	for _, c := range cases {
		err := c.w.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: invalid workflow accepted", c.name)
		}
	}
}

func TestBuiltinWorkflowsValid(t *testing.T) {
	hosts := []model.NodeID{0, 1, 2, 3, 4, 5, 6}
	for _, w := range append(GridNPB(hosts), ScaLapack(hosts)) {
		if err := w.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		if w.Sink() < 0 {
			t.Errorf("%s: no sink", w.Name)
		}
		if len(w.Sources()) == 0 {
			t.Errorf("%s: no sources", w.Name)
		}
	}
}

func TestScaLapackShape(t *testing.T) {
	hosts := []model.NodeID{10, 11, 12}
	w := ScaLapack(hosts)
	if len(w.Tasks) != 4 { // root + 2 workers + gather
		t.Fatalf("tasks = %d, want 4", len(w.Tasks))
	}
	if len(w.Tasks[0].Succ) != 2 {
		t.Errorf("root broadcasts to %d workers, want 2", len(w.Tasks[0].Succ))
	}
	if w.Tasks[0].Host != 10 || w.Tasks[3].Host != 10 {
		t.Error("root and gather must run on hosts[0]")
	}
}

func TestWorkflowRunsAndLoops(t *testing.T) {
	s, hosts := testNet(t, 30, 8, 1, nil, 30*des.Second)
	w := GridNPBHC(hosts[:3])
	stats, err := InstallWorkflow(s, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if stats.Rounds < 2 {
		t.Fatalf("HC completed %d rounds in 30s, want ≥ 2 (looping broken)", stats.Rounds)
	}
	if stats.FirstFinish <= 0 || stats.LastFinish <= stats.FirstFinish {
		t.Errorf("finish times wrong: first %v last %v", stats.FirstFinish, stats.LastFinish)
	}
	// 9 tasks × 120ms compute alone is ≥ 1.08s per round.
	if stats.FirstFinish < des.Second {
		t.Errorf("first round finished in %v, faster than its compute time", stats.FirstFinish)
	}
}

func TestScaLapackRuns(t *testing.T) {
	s, hosts := testNet(t, 30, 8, 1, nil, 20*des.Second)
	stats, err := InstallWorkflow(s, ScaLapack(hosts[:5]), 0)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if stats.Rounds < 3 {
		t.Fatalf("ScaLapack completed %d rounds, want ≥ 3", stats.Rounds)
	}
	if res.FlowsCompleted == 0 {
		t.Error("no flows recorded")
	}
}

func TestWorkflowAcrossEnginesMatchesSequential(t *testing.T) {
	// Same workflow on 1 engine vs 4 engines: round counts must agree.
	runIt := func(engines int) int {
		net, err := topology.GenerateFlat(topology.FlatOptions{Routers: 40, Hosts: 8, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		// Latency-aware partition: merge components joined by links below
		// 1 ms, spread components round-robin; cut links are then ≥ 1 ms.
		window := des.Time(10 * des.Millisecond)
		var part []int32
		if engines > 1 {
			window = des.Millisecond
			parent := make([]int, len(net.Nodes))
			for i := range parent {
				parent[i] = i
			}
			var find func(int) int
			find = func(x int) int {
				for parent[x] != x {
					parent[x] = parent[parent[x]]
					x = parent[x]
				}
				return x
			}
			for i := range net.Links {
				l := &net.Links[i]
				if l.Latency < int64(des.Millisecond) {
					parent[find(int(l.A))] = find(int(l.B))
				}
			}
			part = make([]int32, len(net.Nodes))
			compEngine := map[int]int32{}
			next := int32(0)
			for i := range part {
				r := find(i)
				if _, ok := compEngine[r]; !ok {
					compEngine[r] = next % int32(engines)
					next++
				}
				part[i] = compEngine[r]
			}
		}
		s, err := netsim.New(netsim.Config{
			Net: net, Routes: interdomain.New(net), Part: part, Engines: engines,
			Window: window, End: 15 * des.Second, Sync: cluster.Fixed{CostNS: 10},
		})
		if err != nil {
			t.Fatal(err)
		}
		var hosts []model.NodeID
		for i := range net.Nodes {
			if net.Nodes[i].Kind == model.Host {
				hosts = append(hosts, model.NodeID(i))
			}
		}
		stats, err := InstallWorkflow(s, GridNPBMB(hosts[:4]), 0)
		if err != nil {
			t.Fatal(err)
		}
		s.Run()
		return stats.Rounds
	}
	seqRounds := runIt(1)
	parRounds := runIt(4)
	if seqRounds == 0 {
		t.Fatal("no rounds completed")
	}
	if diff := seqRounds - parRounds; diff > 1 || diff < -1 {
		t.Errorf("rounds diverge: sequential %d vs partitioned %d", seqRounds, parRounds)
	}
}
