package simcheck

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"massf/internal/core"
	"massf/internal/des"
	"massf/internal/dist"
	"massf/internal/experiments"
	"massf/internal/model"
	"massf/internal/pdes"
	"massf/internal/runspec"
)

func TestSplitEngines(t *testing.T) {
	cases := []struct {
		k, workers int
		want       [][2]int
	}{
		{4, 1, [][2]int{{0, 4}}},
		{4, 2, [][2]int{{0, 2}, {2, 2}}},
		{4, 4, [][2]int{{0, 1}, {1, 1}, {2, 1}, {3, 1}}},
		{8, 3, [][2]int{{0, 3}, {3, 3}, {6, 2}}},
	}
	for _, c := range cases {
		got := SplitEngines(c.k, c.workers)
		if len(got) != len(c.want) {
			t.Fatalf("SplitEngines(%d,%d) = %v", c.k, c.workers, got)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("SplitEngines(%d,%d) = %v, want %v", c.k, c.workers, got, c.want)
			}
		}
	}
}

func TestMergeObservations(t *testing.T) {
	a := &Observation{
		TotalEvents: 10, DeliveredBits: 100, FlowsStarted: 2, LastCompletion: 5,
		NodeEvents: []uint64{1, 0}, LinkBits: []uint64{8, 0}, LinkDrops: []uint64{1, 0},
		TCPDone: []des.Time{3, 0}, TCPRecv: []des.Time{2, 0}, UDPRecv: []des.Time{0, 4},
	}
	b := &Observation{
		TotalEvents: 5, DeliveredBits: 50, FlowsStarted: 1, LastCompletion: 9,
		NodeEvents: []uint64{0, 2}, LinkBits: []uint64{0, 16}, LinkDrops: []uint64{0, 3},
		TCPDone: []des.Time{0, 7}, TCPRecv: []des.Time{0, 6}, UDPRecv: []des.Time{1, 0},
	}
	m, err := MergeObservations([]*Observation{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalEvents != 15 || m.DeliveredBits != 150 || m.FlowsStarted != 3 ||
		m.LastCompletion != 9 {
		t.Fatalf("scalar merge wrong: %+v", m)
	}
	if m.NodeEvents[0] != 1 || m.NodeEvents[1] != 2 || m.LinkBits[1] != 16 || m.LinkDrops[1] != 3 {
		t.Fatalf("per-element merge wrong: %+v", m)
	}
	if m.TCPDone[0] != 3 || m.TCPDone[1] != 7 || m.TCPRecv[1] != 6 || m.UDPRecv[0] != 1 || m.UDPRecv[1] != 4 {
		t.Fatalf("time merge wrong: %+v", m)
	}

	// Two workers reporting the same per-flow slot is a conformance failure.
	dup := &Observation{
		NodeEvents: []uint64{0, 0}, LinkBits: []uint64{0, 0}, LinkDrops: []uint64{0, 0},
		TCPDone: []des.Time{1, 0}, TCPRecv: []des.Time{0, 0}, UDPRecv: []des.Time{0, 0},
	}
	if _, err := MergeObservations([]*Observation{a, dup}); err == nil ||
		!strings.Contains(err.Error(), "TCPDone[0]") {
		t.Fatalf("duplicate slot not detected: %v", err)
	}
	// Mismatched slice geometry means the workers did not run the same
	// scenario.
	short := &Observation{NodeEvents: []uint64{0}}
	if _, err := MergeObservations([]*Observation{a, short}); err == nil {
		t.Fatal("slice length mismatch not detected")
	}
	if _, err := MergeObservations(nil); err == nil {
		t.Fatal("empty merge not detected")
	}
}

// distScenario is a fixed scenario with every traffic type, used by the
// loopback distributed checks. Mirrors the acceptance criterion: k=4, TCP +
// UDP + background HTTP, compared against in-process k=4 and sequential.
func distScenario() Scenario {
	return Scenario{
		Seed: 5, Routers: 40, Hosts: 30,
		TCPFlows: 12, UDPSends: 12, HTTPClients: 3, HTTPServers: 2,
		Horizon: 250 * des.Millisecond, Approach: core.TOP2, Ks: []int{4},
	}
}

// planOf is NewPlan or a fatal test failure.
func planOf(t *testing.T, sc Scenario) *Plan {
	t.Helper()
	p, err := NewPlan(sc)
	if err != nil {
		t.Fatalf("%s: %v", sc, err)
	}
	return p
}

// mapOnly maps net onto k engines through the launch path's Map, for tests
// that hold a network but no Setup (their routing is their own business).
func mapOnly(net *model.Network, a core.Approach, k int, seed int64) (*core.Mapping, error) {
	es := experiments.Scenario{Approach: a.String(), RunSpec: runspec.RunSpec{Engines: k}}
	return es.Map(&experiments.Setup{Net: net, Scale: experiments.Scale{Seed: seed}}, nil)
}

// fleet runs p's k=4 distributed leg over loopback workers.
func fleet(t *testing.T, p *Plan, workers int, cacheDir string) *DistReport {
	t.Helper()
	rep, err := p.Distributed(nil, 4, workers, cacheDir, dist.Options{})
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return rep
}

// checkSlices fails t unless every worker of rep built only its slice:
// each reports a build time, owns nodes and holds fewer route-table bytes
// than fullRoutes (an unscoped router's), and together the slices own the
// network's nodes exactly once.
func checkSlices(t *testing.T, rep *DistReport, workers int, fullRoutes int64) {
	t.Helper()
	if len(rep.WorkerMem) != workers {
		t.Fatalf("workers=%d: mem accounting for %d workers", workers, len(rep.WorkerMem))
	}
	owned := 0
	for _, wm := range rep.WorkerMem {
		if wm.BuildNS <= 0 {
			t.Errorf("workers=%d: worker %q reported no build time", workers, wm.Name)
		}
		if wm.SliceNodes <= 0 {
			t.Errorf("workers=%d: worker %q owns no nodes", workers, wm.Name)
		}
		owned += wm.SliceNodes
		if wm.RouteBytes <= 0 || wm.RouteBytes >= fullRoutes {
			t.Errorf("workers=%d: worker %q holds %d route bytes, the unscoped router %d",
				workers, wm.Name, wm.RouteBytes, fullRoutes)
		}
	}
	if want := 40 + 30; owned != want {
		t.Errorf("workers=%d: slices own %d nodes, network has %d", workers, owned, want)
	}
}

// TestCheckDistributedMatchesReference: the same scenario run sequentially,
// in-process on k=4, and across loopback TCP workers hosting the same
// k=4 partition must produce byte-identical observables — for every worker
// count that divides the partition differently.
func TestCheckDistributedMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed oracle run skipped in -short")
	}
	p := planOf(t, distScenario())
	for _, workers := range []int{2, 4} {
		rep := fleet(t, p, workers, "")
		if rep.Ref.TotalEvents == 0 || rep.Ref.HTTPResponses == 0 {
			t.Fatalf("workers=%d: degenerate reference run: events=%d http=%d",
				workers, rep.Ref.TotalEvents, rep.Ref.HTTPResponses)
		}
		for _, d := range rep.DivsInProc {
			t.Errorf("workers=%d in-process k=4: %v", workers, d)
		}
		for _, d := range rep.DivsDist {
			t.Errorf("workers=%d distributed: %v", workers, d)
		}
		if len(rep.Names) != workers || rep.Windows == 0 {
			t.Fatalf("workers=%d: names=%v windows=%d", workers, rep.Names, rep.Windows)
		}
	}
}

// TestCheckShardedMatchesReference: every worker builds only its slice of
// the scenario through the scenario artifact cache — together the slices
// own every node once, each retains less routing state than the plan's own
// warmed, unscoped router — and the fleet stays byte-identical to the
// sequential reference.
func TestCheckShardedMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded oracle run skipped in -short")
	}
	cacheDir := t.TempDir()
	p := planOf(t, distScenario())
	fullRoutes := p.st.Router.TableBytes()
	for _, workers := range []int{2, 4} {
		rep := fleet(t, p, workers, cacheDir)
		for _, d := range rep.DivsDist {
			t.Errorf("workers=%d sliced: %v", workers, d)
		}
		checkSlices(t, rep, workers, fullRoutes)
	}
}

// TestChurnDistributed: the acceptance case — a churn scenario at k=4
// split across 2 workers over the wire matches the sequential reference
// byte for byte, fault-loss attribution included.
func TestChurnDistributed(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed churn run skipped in -short")
	}
	rep := fleet(t, planOf(t, Churn(distScenario())), 2, "")
	if len(rep.Ref.FaultDrops) == 0 {
		t.Fatal("churn scenario compiled no fault plane")
	}
	for _, d := range rep.DivsInProc {
		t.Errorf("in-process k=4: %v", d)
	}
	for _, d := range rep.DivsDist {
		t.Errorf("distributed: %v", d)
	}
}

// TestCheckShardedChurn: fault epochs replayed against slice-scoped routing
// clones, one per engine, on slices built through the scenario cache,
// converge to the same packet-level behavior as the sequential run.
func TestCheckShardedChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded churn run skipped in -short")
	}
	p := planOf(t, Churn(distScenario()))
	if len(p.Ref.FaultDrops) == 0 {
		t.Fatal("churn scenario compiled no fault plane")
	}
	rep := fleet(t, p, 4, t.TempDir())
	for _, d := range rep.DivsDist {
		t.Errorf("sliced: %v", d)
	}
	checkSlices(t, rep, 4, p.st.Router.TableBytes())
}

// TestCheckShardedMultiAS: scoped routing under BGP + stub default routing
// (the interdomain paths) is also partition-invariant.
func TestCheckShardedMultiAS(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded multi-AS run skipped in -short")
	}
	sc := Scenario{
		Seed: 9, MultiAS: true, ASes: 5, RoutersPerAS: 9, Hosts: 28,
		TCPFlows: 10, UDPSends: 10,
		Horizon: 250 * des.Millisecond, Approach: core.TOP2, Ks: []int{4},
	}
	for _, d := range fleet(t, planOf(t, sc), 2, t.TempDir()).DivsDist {
		t.Errorf("distributed: %v", d)
	}
}

// rejectExchange is a transport no engine may reach: a worker must refuse
// a bad job spec before its first window.
type rejectExchange struct{ t *testing.T }

func (r rejectExchange) Exchange(pdes.WindowDone) (pdes.WindowGo, error) {
	r.t.Error("an engine ran on a rejected job spec")
	return pdes.WindowGo{}, errors.New("rejected job spec reached the run")
}

// TestDistRunnerRejectsBadSpec: a worker whose locally computed slice edge
// disagrees with the job spec it was shipped fails with a named error
// before any engine runs.
func TestDistRunnerRejectsBadSpec(t *testing.T) {
	_, rc, err := planOf(t, distScenario()).planDistributed(4, 2, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		edit func(*distSpec, *dist.Job)
		want string
	}{
		{"altered boundary link", func(s *distSpec, _ *dist.Job) { s.Boundaries[0][0].OutsideEngine++ },
			"boundary link 0 differs"},
		{"boundary list one short", func(s *distSpec, _ *dist.Job) { s.Boundaries[0] = s.Boundaries[0][1:] },
			"coordinator shipped"},
		{"engine range of no worker", func(_ *distSpec, j *dist.Job) { j.First = 1 },
			"matches no worker"},
		{"no boundary descriptors", func(s *distSpec, _ *dist.Job) { s.Boundaries = nil },
			"no boundary descriptors"},
	} {
		t.Run(c.name, func(t *testing.T) {
			job := rc.Jobs[0]
			var spec distSpec
			if err := json.Unmarshal(job.Spec, &spec); err != nil {
				t.Fatal(err)
			}
			if len(spec.Boundaries[0]) == 0 {
				t.Fatal("worker 0's slice has no boundary to alter")
			}
			c.edit(&spec, &job)
			if job.Spec, err = json.Marshal(spec); err != nil {
				t.Fatal(err)
			}
			if _, err := DistRunner(job, rejectExchange{t}); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("got %v, want an error naming %q", err, c.want)
			}
		})
	}
}
