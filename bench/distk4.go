package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"time"

	"massf/internal/core"
	"massf/internal/dist"
	"massf/internal/pdes"
	"massf/internal/simcheck"
	"massf/internal/wire"
)

const (
	distEngines = 4
	distWorkers = 2
)

// distInst is dist-k4: one dist.Serve per op, coordinating two worker child
// processes that host two engines each over loopback TCP.
type distInst struct {
	e       env
	sc      simcheck.Scenario
	rep     *simcheck.DistReport
	rc      dist.RunConfig
	ln      net.Listener
	workers []*exec.Cmd
	stdins  []io.Closer

	mu    sync.Mutex
	stats []workerStats // one line per worker per traced run

	planS    float64
	windows  int
	buildMS  []float64 // slowest worker build per op
	workerMB float64
	failed   int
}

func setupDistK4(e env) (instance, error) {
	d := &distInst{e: e, sc: e.size.dist}
	// simcheck derives topology and traffic from the one Seed, and a TOP2
	// cut's MLL — hence the window count this workload is about — jumps with
	// the topology. The network stays the fixed input it is elsewhere; -seed
	// varies the size of the scripted traffic mix by a few percent.
	d.sc.Seed = topoSeed
	d.sc.TCPFlows += int(e.cfg.seed % 17)
	d.sc.UDPSends += int(e.cfg.seed % 13)
	sp := e.sp.child("simcheck.PlanDistributed")
	t0 := time.Now()
	rep, rc, err := simcheck.PlanDistributed(d.sc, distEngines, distWorkers)
	d.planS = time.Since(t0).Seconds()
	sp.end()
	if err != nil {
		return nil, err
	}
	if len(rep.DivsInProc) > 0 {
		return nil, fmt.Errorf("in-process k=%d run diverged from N=1: %v", distEngines, rep.DivsInProc[0])
	}
	d.rep, d.rc = rep, rc
	d.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sp = e.sp.child("spawn workers")
	defer sp.end()
	for i := 0; i < distWorkers; i++ {
		if err := d.spawn(i); err != nil {
			d.close()
			return nil, err
		}
	}
	return d, nil
}

// spawn starts one worker: this binary in -worker mode. The worker leaves
// when its stdin closes, so it cannot outlive the harness even if the
// harness is killed.
func (d *distInst) spawn(i int) error {
	args := []string{"-worker", d.ln.Addr().String(), "-worker-name", "w" + strconv.Itoa(i)}
	if d.e.cfg.trace {
		args = append(args, "-trace", "1")
	}
	cmd := exec.Command(d.e.cfg.exe, args...)
	cmd.Env = append(os.Environ(), workerEnv+"=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting worker: %w", err)
	}
	d.workers = append(d.workers, cmd)
	d.stdins = append(d.stdins, stdin)
	go func() { // a traced worker prints one stats line per run
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			var ws workerStats
			if json.Unmarshal(sc.Bytes(), &ws) == nil {
				d.mu.Lock()
				d.stats = append(d.stats, ws)
				d.mu.Unlock()
			}
		}
	}()
	return nil
}

func (d *distInst) clients() int { return 1 }

func (d *distInst) op(c *opCtx) (opResult, error) {
	sp := c.sp.child("dist.Serve")
	res, err := dist.Serve(d.ln, d.rc, dist.Options{})
	sp.end()
	if err != nil {
		d.failed++
		return opResult{}, err
	}
	sp = c.sp.child("simcheck.MergeObservations+Diff")
	defer sp.end()
	parts := make([]*simcheck.Observation, len(res.Payloads))
	slowest := 0.0
	for i, p := range res.Payloads {
		parts[i] = &simcheck.Observation{}
		if err := json.Unmarshal(p, parts[i]); err != nil {
			d.failed++
			return opResult{}, fmt.Errorf("worker %q result: %w", res.Names[i], err)
		}
		if ms := float64(parts[i].BuildNS) / 1e6; ms > slowest {
			slowest = ms
		}
		if mb := float64(parts[i].PeakRSS) / 1e6; mb > d.workerMB {
			d.workerMB = mb
		}
	}
	merged, err := simcheck.MergeObservations(parts)
	if err != nil {
		d.failed++
		return opResult{}, err
	}
	if divs := simcheck.Diff(d.rep.Ref, merged); len(divs) > 0 {
		d.failed++
		return opResult{}, fmt.Errorf("distributed run diverged from N=1 in %d fields, first %v", len(divs), divs[0])
	}
	d.windows = res.Windows
	d.buildMS = append(d.buildMS, slowest)
	return opResult{work: float64(merged.TotalEvents)}, nil
}

func (d *distInst) digest() uint64 {
	r := d.rep.Ref
	return foldDigest(r.TotalEvents, r.DeliveredBits, r.Dropped, r.Retransmissions,
		uint64(r.FlowsStarted), uint64(r.FlowsCompleted), uint64(d.windows), uint64(d.rep.Window))
}

func (d *distInst) extraRSS() uint64 {
	var sum uint64
	for _, w := range d.workers {
		sum += procPeakRSS(strconv.Itoa(w.Process.Pid))
	}
	return sum
}

// close stops the workers on every exit path: closing stdin asks, Kill
// insists, Wait reaps.
func (d *distInst) close() {
	for _, in := range d.stdins {
		in.Close()
	}
	for _, w := range d.workers {
		_ = w.Process.Kill() // already gone is fine
		_ = w.Wait()
	}
	d.workers, d.stdins = nil, nil
	if d.ln != nil {
		d.ln.Close()
	}
}

func (d *distInst) layers(ls layerSet, tr *tracer, sp span, ops []opSample) {
	serve := median(tr.seconds("dist.Serve"))
	build := median(d.buildMS)
	ls["dist.serve_s"] = serve
	ls["dist.worker_build_ms"] = build
	ls["dist.worker_peak_rss_mb"] = d.workerMB
	ls["dist.failed_runs"] = float64(d.failed)
	ls["pdes.windows"] = float64(d.windows)
	ls["netsim.events"] = float64(d.rep.Ref.TotalEvents)
	ls["netsim.flows_completed"] = float64(d.rep.Ref.FlowsCompleted)
	ls["netsim.dropped"] = float64(d.rep.Ref.Dropped)
	ls["netsim.retransmissions"] = float64(d.rep.Ref.Retransmissions)
	ls["core.achieved_mll_us"] = float64(d.rep.Window) / 1e3
	if d.windows > 0 {
		// Computed: the serve wall without the (replicated) scenario build
		// every worker repeats per run, per barrier window.
		ls["dist.window_us"] = (serve - build/1e3) * 1e6 / float64(d.windows)
	}

	// What the workers saw at the pdes.Transport seam in the traced runs.
	var total workerStats
	d.mu.Lock()
	for _, s := range d.stats {
		total.add(s)
	}
	d.mu.Unlock()
	if total.Exchanges > 0 && total.Events > 0 {
		batch := float64(total.Events) / float64(total.Exchanges)
		ls["wire.events_per_batch"] = batch
		ls["wire.bytes_per_event"] = float64(total.Bytes) / float64(total.Events)
		ls["pdes.remote_events"] = float64(total.Events) / float64(len(d.stats)/distWorkers)
		ls["dist.exchange_rtt_us"] = float64(total.ExchangeNS) / float64(total.Exchanges) / 1e3
		payload := int(total.PayloadBytes / total.Events)
		n := int(batch + 0.5)
		psp := sp.child("probe wire codec")
		ls["wire.encode_ns_per_event"], ls["wire.decode_ns_per_event"] = probeWire(n, payload, 200_000/(n+1)+1)
		psp.end()
	}
	psp := sp.child("probe wire frame")
	ls["wire.frame_ns_per_kb"] = probeFrame(4096, 50_000)
	psp.end()
	psp = sp.child("probe loopback rtt")
	ls["dist.loopback_rtt_us"] = probeLoopbackRTT(20_000)
	psp.end()

	// Computed: PlanDistributed is build + N=1 + map + in-process k=4, and
	// Check with no parallel leg is build + N=1; what is left is the k=4 run
	// the distributed one is compared with.
	psp = sp.child("probe in-process k=4 (by subtraction)")
	defer psp.end()
	seqOnly := d.sc
	seqOnly.Ks = nil
	t0 := time.Now()
	if _, err := simcheck.Check(seqOnly); err != nil {
		return
	}
	base := time.Since(t0).Seconds()
	net, _, _, err := d.sc.Build()
	if err != nil {
		return
	}
	t0 = time.Now()
	if _, err := core.Map(net, d.sc.Approach, core.Config{Engines: distEngines, Seed: d.sc.Seed}, nil); err != nil {
		return
	}
	if inproc := d.planS - base - time.Since(t0).Seconds(); inproc > 0 {
		ls["dist.overhead_ratio"] = serve / inproc
	}
}

// --- worker side ---------------------------------------------------------

// workerEnv marks a process as a bench worker, so the test binary can tell a
// re-execution of itself from a test run.
const workerEnv = "MASSF_BENCH_WORKER"

// workerStats is what a traced worker observed at the pdes.Transport seam
// during one run: windows exchanged, events shipped out, their payload and
// encoded sizes, and the time spent inside Exchange.
type workerStats struct {
	Exchanges, Events, PayloadBytes, Bytes uint64
	ExchangeNS                             int64
}

func (a *workerStats) add(b workerStats) {
	a.Exchanges += b.Exchanges
	a.Events += b.Events
	a.PayloadBytes += b.PayloadBytes
	a.Bytes += b.Bytes
	a.ExchangeNS += b.ExchangeNS
}

// countingTransport wraps the worker's real transport in the traced pass.
type countingTransport struct {
	inner pdes.Transport
	stats workerStats
	buf   []byte
}

func (t *countingTransport) Exchange(d pdes.WindowDone) (pdes.WindowGo, error) {
	t.stats.Exchanges++
	t.stats.Events += uint64(len(d.Events))
	for i := range d.Events {
		t.stats.PayloadBytes += uint64(len(d.Events[i].Payload))
	}
	t.buf = wire.AppendEvents(t.buf[:0], d.Events)
	t.stats.Bytes += uint64(len(t.buf))
	t0 := time.Now()
	g, err := t.inner.Exchange(d)
	t.stats.ExchangeNS += time.Since(t0).Nanoseconds()
	return g, err
}

// runWorker is the -worker mode: serve simcheck jobs from the coordinator at
// addr, one after another, until stdin closes (the harness is done, or gone).
func runWorker(addr, name string, traced bool) {
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin)
		os.Exit(0)
	}()
	runners := simcheck.Runners()
	if traced {
		out := json.NewEncoder(os.Stdout)
		runners = map[string]dist.Runner{simcheck.DistJobKind: func(job dist.Job, t pdes.Transport) ([]byte, error) {
			ct := &countingTransport{inner: t}
			payload, err := simcheck.DistRunner(job, ct)
			if err == nil {
				err = out.Encode(ct.stats)
			}
			return payload, err
		}}
	}
	for {
		// An error here is a failed or aborted run, which the coordinator
		// reports with its cause, or a wait for a job that never came; either
		// way the next run needs this worker back in line.
		if err := dist.RunWorker(addr, name, runners, dist.Options{}); err != nil {
			fmt.Fprintf(os.Stderr, "bench worker %s: %v\n", name, err)
			time.Sleep(100 * time.Millisecond)
		}
	}
}
