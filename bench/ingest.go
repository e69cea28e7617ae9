package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"

	"massf/internal/agent"
	"massf/internal/runctl"
	"massf/internal/runspec"
)

// ingestInst is the ingest workload: one run paced at real time with the
// agent plane attached, and nproc agent connections each sending bursts of
// 64-byte messages as fast as the credit window allows. Connections are
// capped at nproc so the number is the injection path's, not the scheduler's.
type ingestInst struct {
	e       env
	d       *daemon
	runID   string
	conns   []*agent.Client
	rngs    []*rand.Rand
	drained sync.WaitGroup
	payload []byte

	sent0, bp0        uint64
	injected0         uint64
	t0                time.Time
	heapBeforeConnsMB float64
}

func setupIngest(e env) (instance, error) {
	sp := e.sp.child("start daemon")
	d, err := startDaemon(true)
	sp.end()
	if err != nil {
		return nil, err
	}
	g := &ingestInst{e: e, d: d, payload: bytes.Repeat([]byte{0x5a}, 64)}
	fail := func(err error) (instance, error) {
		g.close()
		return nil, err
	}
	sp = e.sp.child("POST /runs")
	info, refused, err := d.submit(runctl.Spec{
		Name:     "ingest",
		Flat:     &runctl.FlatSpec{Routers: e.size.ingestRouters, Hosts: e.size.ingestHosts},
		Approach: "HTOP",
		// Paced, and far longer than any measurement: the run is cancelled
		// at close.
		RunSpec: runspec.RunSpec{Engines: 2, Seconds: 3600, Seed: topoSeed, RealTimeFactor: 1},
		Ingest:  true,
	})
	sp.end()
	if err != nil || refused {
		return fail(fmt.Errorf("submitting the paced run: refused=%v err=%v", refused, err))
	}
	g.runID = info.ID
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	g.heapBeforeConnsMB = float64(ms.HeapInuse) / 1e6
	// The agent registers when execution starts: attach with retry.
	sp = e.sp.child("agent.Dial")
	defer sp.end()
	deadline := time.Now().Add(20 * time.Second)
	for c := 0; c < runtime.NumCPU(); c++ {
		for {
			cl, err := agent.Dial(d.ingLn.Addr().String(), g.runID, 0)
			if err == nil {
				g.conns = append(g.conns, cl)
				g.rngs = append(g.rngs, rand.New(rand.NewSource(e.cfg.seed*1000+int64(c))))
				// Host c is this connection's: every message is addressed to
				// a listened host, so a drop is a slow consumer, not a
				// missing one. The channel closes with the connection.
				if err := cl.Listen(c); err != nil {
					return fail(fmt.Errorf("listening on host %d: %w", c, err))
				}
				g.drained.Add(1)
				go func() {
					defer g.drained.Done()
					for range cl.Deliveries() {
					}
				}()
				break
			}
			if time.Now().After(deadline) {
				return fail(fmt.Errorf("attaching to run %s: %w", g.runID, err))
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	// Fill: the credit windows, the pump epochs and the delivery queues reach
	// their standing state before the first timed burst. A fixed number of
	// bursts, not a fixed time: the daemon's memory grows with the messages
	// injected, and peak_rss_mb is read at a fixed amount of work.
	sp.end()
	sp = e.sp.child("fill")
	var wg sync.WaitGroup
	errs := make([]error, len(g.conns))
	for c := range g.conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < e.size.ingestFill && errs[c] == nil; i++ {
				_, errs[c] = g.op(&opCtx{client: c})
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fail(err)
		}
	}
	g.sent0, g.bp0, _, _ = d.ing.Counters()
	if inf, err := d.info(g.runID); err == nil && inf.Agent != nil {
		g.injected0 = inf.Agent.Injected
	}
	g.t0 = time.Now()
	return g, nil
}

func (g *ingestInst) clients() int { return len(g.conns) }

// op sends one burst on the client's connection, from seeded hosts to the
// listened ones; Send blocks while the credit window is closed.
func (g *ingestInst) op(c *opCtx) (opResult, error) {
	cl, rng := g.conns[c.client], g.rngs[c.client]
	h := cl.Hosts()
	sp := c.sp.child("agent.Client.Send burst")
	defer sp.end()
	for i := 0; i < g.e.size.ingestBurst; i++ {
		to := rng.Intn(len(g.conns))
		from := (to + 1 + rng.Intn(h-1)) % h
		if err := cl.Send(from, to, g.payload); err != nil {
			return opResult{}, fmt.Errorf("send on connection %d: %w", c.client, err)
		}
	}
	return opResult{work: float64(g.e.size.ingestBurst)}, nil
}

// digest: live injection has no host-independent count; the attach handshake
// does (the run's host table).
func (g *ingestInst) digest() uint64 {
	return foldDigest(uint64(g.conns[0].Hosts()), uint64(g.e.size.ingestBurst))
}

func (g *ingestInst) extraRSS() uint64 { return 0 }

func (g *ingestInst) close() {
	for _, cl := range g.conns {
		cl.Close()
	}
	g.drained.Wait()
	g.conns = nil
	if g.runID != "" {
		req, err := http.NewRequest(http.MethodDelete, g.d.base+"/runs/"+g.runID, nil)
		if err == nil {
			if resp, err := g.d.client.Do(req); err == nil {
				resp.Body.Close()
			}
		}
	}
	g.d.stop()
}

func (g *ingestInst) layers(ls layerSet, tr *tracer, sp span, ops []opSample) {
	wall := time.Since(g.t0).Seconds()
	sent, bp, delivered, dropped := g.d.ing.Counters()
	ls["agent.sent_per_sec"] = float64(sent-g.sent0) / wall
	if sent > g.sent0 {
		ls["agent.backpressured_share"] = float64(bp-g.bp0) / float64(sent-g.sent0)
	}
	if delivered+dropped > 0 {
		ls["agent.dropped_share"] = float64(dropped) / float64(delivered+dropped)
	}
	if inf, err := g.d.info(g.runID); err == nil && inf.Agent != nil {
		ls["agent.injected_per_sec"] = float64(inf.Agent.Injected-g.injected0) / wall
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ls["agent.heap_mb_per_conn"] = (float64(ms.HeapInuse)/1e6 - g.heapBeforeConnsMB) / float64(len(g.conns))
	ls["runctl.heap_inuse_mb"] = float64(ms.HeapInuse) / 1e6
}
