package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"massf/internal/agent"
	"massf/internal/runctl"
	"massf/internal/runspec"
)

// daemon is the embedded service both service workloads drive: the manager,
// its HTTP front end on loopback, and (ingest only) the agent plane on
// loopback TCP — the components cmd/massfd wires, in one process.
type daemon struct {
	mgr    *runctl.Manager
	srv    *http.Server
	ing    *agent.Ingest
	ingLn  net.Listener
	base   string
	client *http.Client
	served chan struct{}
}

func startDaemon(ingest bool) (*daemon, error) {
	d := &daemon{served: make(chan struct{})}
	opts := runctl.Options{Workers: runtime.NumCPU(), RingCap: 256, QueueDepth: 64}
	if ingest {
		d.ing = agent.NewIngest(0)
		opts.Ingest = d.ing
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		d.ingLn = ln
		go func() { _ = d.ing.Serve(ln) }() // returns nil after Close
	}
	d.mgr = runctl.NewManagerOpts(opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.srv = &http.Server{Handler: runctl.NewServer(d.mgr)}
	go func() {
		defer close(d.served)
		_ = d.srv.Serve(ln) // ErrServerClosed after stop
	}()
	d.base = "http://" + ln.Addr().String() + runctl.APIPrefix
	d.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * runtime.NumCPU()}}
	return d, nil
}

// stop drains the runs, closes both listeners and waits for the serving
// goroutines: nothing of the daemon outlives it.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	_ = d.mgr.Shutdown(ctx)
	d.client.CloseIdleConnections()
	_ = d.srv.Shutdown(ctx)
	<-d.served
	if d.ing != nil {
		_ = d.ing.Close()
	}
}

// submit POSTs a spec. refused reports a 429, the service's named refusal.
func (d *daemon) submit(spec runctl.Spec) (info runctl.Info, refused bool, err error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return info, false, err
	}
	resp, err := d.client.Post(d.base+"/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return info, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		return info, true, nil
	}
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return info, false, fmt.Errorf("POST /runs: %s: %s", resp.Status, msg)
	}
	return info, false, json.NewDecoder(resp.Body).Decode(&info)
}

func (d *daemon) info(id string) (runctl.Info, error) {
	var info runctl.Info
	resp, err := d.client.Get(d.base + "/runs/" + id)
	if err != nil {
		return info, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return info, fmt.Errorf("GET /runs/%s: %s", id, resp.Status)
	}
	return info, json.NewDecoder(resp.Body).Decode(&info)
}

// follow reads the run's NDJSON window stream to its end — the server closes
// it when the run turns terminal — and returns when the first record came.
// No polling: the client blocks on the stream.
func (d *daemon) follow(id string, c *opCtx) (first time.Time, err error) {
	sp := c.sp.child("first window")
	resp, err := d.client.Get(d.base + "/runs/" + id + "/metrics")
	if err != nil {
		sp.end()
		return first, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		sp.end()
		return first, fmt.Errorf("GET /runs/%s/metrics: %s", id, resp.Status)
	}
	r := bufio.NewReader(resp.Body)
	_, err = r.ReadBytes('\n')
	first = time.Now()
	sp.end()
	if err == io.EOF {
		return first, nil // a run with no window: the stream just ends
	}
	if err != nil {
		return first, err
	}
	sp = c.sp.child("stream to terminal")
	_, err = io.Copy(io.Discard, r)
	sp.end()
	return first, err
}

// svcInst is the service workload: nproc closed-loop submitters, each run
// followed from POST to its terminal state.
type svcInst struct {
	e       env
	d       *daemon
	hot     []runctl.Spec
	rngs    []*rand.Rand // one per client
	missSeq atomic.Int64

	mu            sync.Mutex
	submitMS      []float64
	firstMS       []float64 // cache hits
	coldFirstMS   []float64 // misses
	setupMS       []float64
	hits, posts   int
	refused       int
	events        [hotSpecs]uint64 // per hot spec: must repeat exactly
	totalRuns     int
	heapInuseByte uint64
}

const hotSpecs = 4

func (s *svcInst) spec(seed int64) runctl.Spec {
	return runctl.Spec{
		Flat:     &runctl.FlatSpec{Routers: s.e.size.svcRouters, Hosts: s.e.size.svcHosts},
		Approach: "HTOP", App: s.e.size.svcApp,
		RunSpec: runspec.RunSpec{Engines: 2, Seconds: s.e.size.svcSeconds, Seed: seed},
	}
}

func setupService(e env) (instance, error) {
	sp := e.sp.child("start daemon")
	d, err := startDaemon(false)
	sp.end()
	if err != nil {
		return nil, err
	}
	s := &svcInst{e: e, d: d}
	for c := 0; c < runtime.NumCPU(); c++ {
		s.rngs = append(s.rngs, rand.New(rand.NewSource(e.cfg.seed*1000+int64(c))))
	}
	// Cache warm: each hot spec is built once before the first timed op.
	sp = e.sp.child("warm setup cache")
	defer sp.end()
	for i := 0; i < hotSpecs; i++ {
		s.hot = append(s.hot, s.spec(int64(i+1)))
		if _, err := s.run(&opCtx{}, i); err != nil {
			d.stop()
			return nil, err
		}
	}
	return s, nil
}

func (s *svcInst) clients() int { return len(s.rngs) }

// op submits the client's next spec: 7 of 8 one of the hot specs (a setup
// cache hit), 1 of 8 a topology seed the daemon has never seen (a miss).
func (s *svcInst) op(c *opCtx) (opResult, error) {
	rng := s.rngs[c.client]
	hot := rng.Intn(hotSpecs)
	if rng.Intn(8) == 0 {
		hot = -1
	}
	cached, err := s.run(c, hot)
	return opResult{work: 1, cold: !cached}, err
}

// run drives one submission to its terminal state; hot < 0 is a miss.
func (s *svcInst) run(c *opCtx, hot int) (cached bool, err error) {
	var spec runctl.Spec
	if hot >= 0 {
		spec = s.hot[hot]
	} else {
		// Seeds no hot spec and no other run of this process uses.
		spec = s.spec(1000*s.e.cfg.seed + 100 + s.missSeq.Add(1))
	}
	t0 := time.Now()
	sp := c.sp.child("POST /runs")
	info, refused, err := s.d.submit(spec)
	sp.end()
	submitted := time.Now()
	s.mu.Lock()
	s.posts++
	if refused {
		s.refused++
	}
	s.mu.Unlock()
	if err != nil {
		return false, err
	}
	if refused {
		return false, fmt.Errorf("submission refused: queue_full")
	}
	first, err := s.d.follow(info.ID, c)
	if err != nil {
		return false, err
	}
	// The window stream closes when the simulation returns, a moment before
	// the run turns terminal (ROADMAP item 0), so the state is read until it
	// is final.
	sp = c.sp.child("GET /runs/{id}")
	final, err := s.d.info(info.ID)
	for err == nil && !final.State.Terminal() {
		time.Sleep(200 * time.Microsecond)
		final, err = s.d.info(info.ID)
	}
	sp.end()
	if err != nil {
		return false, err
	}
	if final.State != runctl.StateDone {
		return false, fmt.Errorf("run %s ended %s: %s", final.ID, final.State, final.Error)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.totalRuns++
	s.heapInuseByte = final.HeapInuse
	if hot >= 0 {
		if s.events[hot] == 0 {
			s.events[hot] = final.Events
		} else if s.events[hot] != final.Events {
			return false, fmt.Errorf("hot spec %d executed %d events, earlier %d", hot, final.Events, s.events[hot])
		}
	}
	if final.Events == 0 {
		return false, fmt.Errorf("run %s executed no events", final.ID)
	}
	s.submitMS = append(s.submitMS, submitted.Sub(t0).Seconds()*1e3)
	s.setupMS = append(s.setupMS, final.SetupMS)
	ms := first.Sub(t0).Seconds() * 1e3
	if final.BuildCached {
		s.hits++
		s.firstMS = append(s.firstMS, ms)
	} else {
		s.coldFirstMS = append(s.coldFirstMS, ms)
	}
	return final.BuildCached, nil
}

func (s *svcInst) digest() uint64   { return foldDigest(s.events[:]...) }
func (s *svcInst) extraRSS() uint64 { return 0 }
func (s *svcInst) close()           { s.d.stop() }

func (s *svcInst) layers(ls layerSet, tr *tracer, sp span, ops []opSample) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ls["runctl.submit_rtt_ms_p50"] = percentile(s.submitMS, 0.50)
	ls["runctl.first_window_ms_p50"] = percentile(s.firstMS, 0.50)
	// A p95 needs ten samples beyond it.
	if len(s.firstMS) >= 200 {
		ls["runctl.submit_rtt_ms_p95"] = percentile(s.submitMS, 0.95)
		ls["runctl.first_window_ms_p95"] = percentile(s.firstMS, 0.95)
	}
	ls["runctl.latency_samples"] = float64(len(s.firstMS))
	ls["runctl.cold_first_window_ms_p50"] = percentile(s.coldFirstMS, 0.50)
	ls["runctl.setup_ms_p50"] = percentile(s.setupMS, 0.50)
	ls["runctl.cache_hit_ratio"] = float64(s.hits) / float64(s.totalRuns)
	ls["runctl.refused_share"] = float64(s.refused) / float64(s.posts)
	ls["runctl.heap_inuse_mb"] = float64(s.heapInuseByte) / 1e6
}
