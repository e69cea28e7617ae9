package massf_test

import (
	"errors"
	"net"
	"os/exec"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"massf/internal/core"
	"massf/internal/des"
	"massf/internal/dist"
	"massf/internal/simcheck"
)

// buildMassfd compiles the massfd binary into a temp dir and returns its
// path.
func buildMassfd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "massfd")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/massfd").CombinedOutput(); err != nil {
		t.Fatalf("build massfd: %v\n%s", err, out)
	}
	return bin
}

// distE2EScenario is the fixed conformance scenario the subprocess runs
// execute: every traffic type, partitioned on 4 engines.
func distE2EScenario() simcheck.Scenario {
	return simcheck.Scenario{
		Seed: 5, Routers: 40, Hosts: 30,
		TCPFlows: 12, UDPSends: 12, HTTPClients: 3, HTTPServers: 2,
		Horizon: 250 * des.Millisecond, Approach: core.TOP2, Ks: []int{4},
	}
}

// planAndServe plans sc and coordinates its distributed leg over ln; the
// test launches the massfd -worker processes against ln's address, and each
// builds only its slice of the scenario.
func planAndServe(ln net.Listener, sc simcheck.Scenario, k, workers int) (*simcheck.DistReport, error) {
	p, err := simcheck.NewPlan(sc)
	if err != nil {
		return nil, err
	}
	return p.Distributed(ln, k, workers)
}

// TestDistributedEndToEnd runs the full distributed pipeline through real
// process boundaries: the test acts as coordinator, two `massfd -worker`
// subprocesses each host half of a k=4 partition over loopback TCP, and the
// merged observables must be byte-identical to the in-process k=4 run and
// the sequential reference.
func TestDistributedEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs massfd worker subprocesses")
	}
	bin := buildMassfd(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	const workers = 2
	var wg sync.WaitGroup
	outs := make([][]byte, workers)
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		i := i
		cmd := exec.Command(bin, "-worker", "-join", ln.Addr().String(),
			"-worker-name", "w"+string(rune('0'+i)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i], errs[i] = cmd.CombinedOutput()
		}()
	}

	rep, err := planAndServe(ln, distE2EScenario(), 4, workers)
	wg.Wait()
	if err != nil {
		for i := range outs {
			t.Logf("worker %d output:\n%s", i, outs[i])
		}
		t.Fatalf("distributed run failed: %v", err)
	}
	for i, werr := range errs {
		if werr != nil {
			t.Fatalf("worker %d exited with error: %v\n%s", i, werr, outs[i])
		}
	}
	if rep.Ref.TotalEvents == 0 || rep.Ref.HTTPResponses == 0 {
		t.Fatalf("degenerate reference run: events=%d http=%d",
			rep.Ref.TotalEvents, rep.Ref.HTTPResponses)
	}
	for _, d := range rep.DivsInProc {
		t.Errorf("in-process k=4 divergence: %v", d)
	}
	for _, d := range rep.DivsDist {
		t.Errorf("distributed divergence: %v", d)
	}
	if len(rep.Names) != workers {
		t.Fatalf("coordinator saw workers %v, want %d", rep.Names, workers)
	}
}

// TestDistributedChurnEndToEnd is the subprocess variant of the churn
// conformance dimension: the same scripted link/router faults are compiled
// independently by the coordinator and by both massfd -worker processes
// (against each worker's scoped routing), and the merged k=4 observables —
// per-fault loss attribution included — must match the sequential
// reference exactly.
func TestDistributedChurnEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs massfd worker subprocesses")
	}
	bin := buildMassfd(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	const workers = 2
	var wg sync.WaitGroup
	outs := make([][]byte, workers)
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		i := i
		cmd := exec.Command(bin, "-worker", "-join", ln.Addr().String(),
			"-worker-name", "w"+string(rune('0'+i)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i], errs[i] = cmd.CombinedOutput()
		}()
	}

	sc := simcheck.Churn(distE2EScenario())
	rep, err := planAndServe(ln, sc, 4, workers)
	wg.Wait()
	if err != nil {
		for i := range outs {
			t.Logf("worker %d output:\n%s", i, outs[i])
		}
		t.Fatalf("distributed churn run failed: %v", err)
	}
	for i, werr := range errs {
		if werr != nil {
			t.Fatalf("worker %d exited with error: %v\n%s", i, werr, outs[i])
		}
	}
	if len(rep.Ref.FaultDrops) == 0 {
		t.Fatal("churn scenario compiled no fault plane")
	}
	for _, d := range rep.DivsInProc {
		t.Errorf("in-process k=4 divergence: %v", d)
	}
	for _, d := range rep.DivsDist {
		t.Errorf("distributed divergence: %v", d)
	}
}

// TestDistributedPathTraceEndToEnd is the subprocess variant of the
// observer-neutrality dimension: two real `massfd -worker` processes run
// an instrumented k=4 partition over loopback TCP, the merged observables
// must match the *uninstrumented* sequential reference (the plane observed
// without perturbing, even across the wire), the stitched spans must be
// byte-identical to the in-process run of the same partition, and the
// sampled paths must follow the routes actually in force — with at least
// one path crossing the worker boundary.
func TestDistributedPathTraceEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs massfd worker subprocesses")
	}
	bin := buildMassfd(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	const workers = 2
	var wg sync.WaitGroup
	outs := make([][]byte, workers)
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		i := i
		cmd := exec.Command(bin, "-worker", "-join", ln.Addr().String(),
			"-worker-name", "w"+string(rune('0'+i)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i], errs[i] = cmd.CombinedOutput()
		}()
	}

	sc := distE2EScenario()
	sc.NetSample = 3
	rep, err := planAndServe(ln, sc, 4, workers)
	wg.Wait()
	if err != nil {
		for i := range outs {
			t.Logf("worker %d output:\n%s", i, outs[i])
		}
		t.Fatalf("distributed instrumented run failed: %v", err)
	}
	for i, werr := range errs {
		if werr != nil {
			t.Fatalf("worker %d exited with error: %v\n%s", i, werr, outs[i])
		}
	}
	for _, d := range rep.DivsInProc {
		t.Errorf("in-process instrumented divergence: %v", d)
	}
	for _, d := range rep.DivsDist {
		t.Errorf("distributed instrumented divergence: %v", d)
	}

	// Neutrality across the wire: diff the instrumented subprocess run
	// against the reference of the SAME scenario with the plane off.
	plain := sc
	plain.NetSample = 0
	plainRep, _, err := simcheck.PlanDistributed(plain, 4, workers)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range simcheck.Diff(plainRep.Ref, rep.Dist) {
		t.Errorf("instrumented wire run diverges from uninstrumented reference: %v", d)
	}

	// The wire changed nothing about the sampled spans either: every span a
	// worker shipped is byte-identical to the in-process run of the same
	// partition, recording engines included.
	if len(rep.Dist.PathSpans) == 0 {
		t.Fatal("workers shipped no path spans")
	}
	if !reflect.DeepEqual(rep.InProc.PathSpans, rep.Dist.PathSpans) {
		t.Fatalf("merged worker spans differ from the in-process run: %d vs %d spans",
			len(rep.Dist.PathSpans), len(rep.InProc.PathSpans))
	}

	// Every stitched path must follow the forwarding table; at least one
	// complete path must have spans recorded on both workers' engine ranges
	// (worker 0 hosts engines 0-1, worker 1 hosts 2-3). The rebuild is
	// deterministic, so its routes are the ones the workers used.
	nw, routes, _, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	paths := simcheck.AuditTraces(nw, routes, rep.Dist.PathSpans)
	complete, crossWorker := 0, 0
	for _, p := range paths {
		if p.Err != "" {
			t.Errorf("trace %d deviates from the route: %s", p.Trace, p.Err)
		}
		if !p.Complete {
			continue
		}
		complete++
		if len(p.Engines) > 0 && p.Engines[0] < 2 && p.Engines[len(p.Engines)-1] >= 2 {
			crossWorker++
		}
	}
	if complete == 0 {
		t.Fatal("no sampled path reached its destination")
	}
	if crossWorker == 0 {
		t.Fatalf("no complete path crossed the worker boundary (%d complete of %d)",
			complete, len(paths))
	}
}

// notifyListener counts accepted connections so the test can act once
// every worker has joined. SetDeadline forwards so the coordinator's join
// deadline still works through the wrapper.
type notifyListener struct {
	net.Listener
	accepted chan struct{}
}

func (l *notifyListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted <- struct{}{}
	}
	return c, err
}

func (l *notifyListener) SetDeadline(t time.Time) error {
	if d, ok := l.Listener.(interface{ SetDeadline(time.Time) error }); ok {
		return d.SetDeadline(t)
	}
	return nil
}

// TestDistributedWorkerKillAttribution kills one worker subprocess mid-run:
// the coordinator must fail within the heartbeat timeout and name the dead
// worker, and the surviving worker must exit promptly on the abort.
func TestDistributedWorkerKillAttribution(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs massfd worker subprocesses")
	}
	bin := buildMassfd(t)
	tln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tln.Close()
	ln := &notifyListener{Listener: tln, accepted: make(chan struct{}, 4)}

	// A RANDOM-approach scenario sits at the latency floor, so the run
	// spans tens of thousands of barrier windows (~30 µs each over
	// loopback) — the post-join run lasts on the order of a second.
	sc := distE2EScenario()
	sc.Approach = core.RANDOM
	sc.Horizon = 2 * des.Second

	victim := exec.Command(bin, "-worker", "-join", tln.Addr().String(), "-worker-name", "victim")
	survivor := exec.Command(bin, "-worker", "-join", tln.Addr().String(), "-worker-name", "survivor")
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	defer victim.Process.Kill()
	if err := survivor.Start(); err != nil {
		t.Fatal(err)
	}
	defer survivor.Process.Kill()

	killed := make(chan time.Time, 1)
	go func() {
		// Both workers joined; give the run a head start into its windows,
		// then kill one far from any protocol boundary.
		<-ln.accepted
		<-ln.accepted
		time.Sleep(150 * time.Millisecond)
		victim.Process.Kill()
		killed <- time.Now()
	}()

	_, err = planAndServe(ln, sc, 4, 2)
	failedAt := time.Now()
	if err == nil {
		t.Fatal("coordinator did not fail after a worker was killed")
	}
	var werr *dist.WorkerError
	if !errors.As(err, &werr) {
		t.Fatalf("error does not attribute a worker: %v", err)
	}
	if werr.Name != "victim" {
		t.Fatalf("failure attributed to %q, want \"victim\": %v", werr.Name, err)
	}
	const deadline = 2 * time.Second // dist's fixed liveness deadline
	if elapsed := failedAt.Sub(<-killed); elapsed > deadline+2*time.Second {
		t.Fatalf("failure took %v after the kill, want within the %v heartbeat timeout",
			elapsed, deadline)
	}

	// The abort frame must release the survivor — it exits on its own, no
	// kill needed.
	done := make(chan error, 1)
	go func() { done <- survivor.Wait() }()
	select {
	case <-done:
		// Non-zero exit is expected: the worker reports the aborted run.
	case <-time.After(10 * time.Second):
		t.Fatal("surviving worker did not exit after the coordinator aborted the run")
	}
}
