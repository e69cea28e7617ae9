// Command massfd is the run-control daemon: an HTTP service that
// accepts scenario submissions (inline DML networks or generator
// parameters), executes them as concurrent parallel simulations under a
// bounded worker pool, and exposes live observability — per-window
// NDJSON streams per run and an aggregate Prometheus endpoint.
//
// Example session:
//
//	massfd -addr 127.0.0.1:8672 &
//	curl -s localhost:8672/api/v1/runs -d '{"flat":{"routers":200,"hosts":100},"engines":4,"seconds":2}'
//	curl -s localhost:8672/api/v1/runs -d '{"flat":{"routers":200,"hosts":100},"engines":4,"seconds":2,
//	                                 "flow_fidelity":"hybrid"}'   # background HTTP on the fluid plane
//	curl -s localhost:8672/api/v1/runs/r0001/metrics          # live NDJSON
//	curl -s localhost:8672/api/v1/metrics                     # Prometheus
//
// With -worker the binary is instead one worker of a DISTRIBUTED
// simulation: it dials the coordinator, receives its job (kind + hosted
// engine range + spec), runs it through the dist TCP transport, ships the
// result payload, and exits. One process per worker:
//
//	massfd -worker -join 10.0.0.1:9432 -worker-name node7
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"massf/internal/agent"
	"massf/internal/dist"
	"massf/internal/faults"
	"massf/internal/runctl"
	"massf/internal/simcheck"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8672", "listen address (use :0 for an ephemeral port)")
		workers   = flag.Int("workers", max(1, runtime.NumCPU()/2), "maximum concurrent simulations")
		ringCap   = flag.Int("ring", 4096, "per-run window-record ring capacity")
		withPprof = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ and expvar under /debug/vars")
		faultPath = flag.String("faults", "", "JSON fault script applied to every submitted run that carries none of its own")
		ingest    = flag.String("ingest", "", "TCP listen address of the live agent ingest plane (empty = disabled; use :0 for an ephemeral port)")
		window    = flag.Int("ingest-window", 0, "per-connection send window granted to ingest clients (0 = default)")
		queueCap  = flag.Int("queue", 64, "admission-queue depth; submissions beyond it are rejected with 429")

		worker     = flag.Bool("worker", false, "run as a distributed-simulation worker instead of the HTTP daemon")
		join       = flag.String("join", "", "coordinator address to dial (worker mode)")
		workerName = flag.String("worker-name", "", "name reported to the coordinator (worker mode; default host:pid)")
	)
	flag.Parse()

	if *worker {
		if *join == "" {
			fmt.Fprintln(os.Stderr, "massfd: -worker requires -join <coordinator address>")
			os.Exit(2)
		}
		name := *workerName
		if name == "" {
			host, _ := os.Hostname()
			name = fmt.Sprintf("%s:%d", host, os.Getpid())
		}
		log.Printf("massfd: worker %q joining coordinator at %s", name, *join)
		err := dist.RunWorker(*join, name, workerRunners(), dist.Options{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "massfd:", err)
			os.Exit(1)
		}
		log.Printf("massfd: worker %q done", name)
		return
	}

	var ing *agent.Ingest
	if *ingest != "" {
		ing = agent.NewIngest(*window)
	}
	mgr := runctl.NewManagerOpts(runctl.Options{
		Workers:    *workers,
		RingCap:    *ringCap,
		QueueDepth: *queueCap,
		Ingest:     ing,
	})
	if ing != nil {
		iln, err := net.Listen("tcp", *ingest)
		if err != nil {
			fmt.Fprintln(os.Stderr, "massfd:", err)
			os.Exit(1)
		}
		// One parseable line, mirroring the HTTP one below.
		log.Printf("massfd: agent ingest on tcp://%s", iln.Addr())
		go func() {
			if err := ing.Serve(iln); err != nil {
				log.Printf("massfd: ingest listener failed: %v", err)
			}
		}()
		defer ing.Close()
	}
	if *faultPath != "" {
		ff, err := os.Open(*faultPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "massfd:", err)
			os.Exit(1)
		}
		script, err := faults.Load(ff)
		ff.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "massfd:", err)
			os.Exit(1)
		}
		mgr.SetDefaultFaults(script)
		log.Printf("massfd: default fault script %s (%d events)", *faultPath, len(script.Events))
	}
	var handler http.Handler = runctl.NewServer(mgr)
	if *withPprof {
		// Host-side profiling of the daemon itself (goroutine/heap/CPU),
		// complementing the simulation-side flight recorder. Registered
		// explicitly so the default off state exposes nothing.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/debug/vars", expvar.Handler())
		mux.Handle("/", handler)
		handler = mux
	}
	srv := &http.Server{Handler: handler}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "massfd:", err)
		os.Exit(1)
	}
	// The resolved address on one parseable line, so scripts (and the
	// e2e test) can use -addr 127.0.0.1:0.
	log.Printf("massfd: listening on http://%s (workers=%d)", ln.Addr(), *workers)

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("massfd: %v, shutting down (repeat to force exit)", s)
		// A second signal aborts the graceful drain immediately.
		go func() {
			s := <-sig
			log.Printf("massfd: %v again, exiting now", s)
			os.Exit(1)
		}()
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "massfd:", err)
			os.Exit(1)
		}
		return
	}

	ctx, cancelHTTP := context.WithTimeout(context.Background(), 5*time.Second)
	srv.Shutdown(ctx)
	cancelHTTP()
	ctx, cancelRuns := context.WithTimeout(context.Background(), 30*time.Second)
	if err := mgr.Shutdown(ctx); err != nil {
		log.Printf("massfd: runs did not drain: %v", err)
	}
	cancelRuns()
}

// workerRunners registers every job kind this worker build can execute.
// The transport layer is model-agnostic; the cmd layer owns this registry.
func workerRunners() map[string]dist.Runner {
	return simcheck.Runners()
}
