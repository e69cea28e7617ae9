package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// config is one workload run, as the flags describe it.
type config struct {
	workload string
	seed     int64
	seconds  float64 // length of the measured window
	ops      int     // > 0: run exactly this many ops instead of a timed window
	trace    bool
	traceOut string
	tiny     bool   // smoke-test sizes (bench_test.go)
	exe      string // this binary, re-executed for workers and child runs
	out      io.Writer
}

const (
	// setupReps set-ups are timed per untraced run and setup_s is their
	// median: one set-up is a single sample and wanders with the page cache
	// and the first GC cycles.
	setupReps = 3
	// opTimeout turns a hung op into a failed one naming the workload. The
	// slowest op is ≈2 s on two cores.
	opTimeout = 60 * time.Second
	minOps    = 3
)

// env is what a workload's set-up gets: sizes, the seed, and the span under
// which it records its layer calls.
type env struct {
	cfg  config
	size sizes
	sp   span
}

// opCtx is one operation's context: which closed-loop client issues it and
// the span its layer calls hang under (inert when the op is untraced).
type opCtx struct {
	client int
	sp     span
	traced bool
}

// opResult is what one operation reports: units of work done (the numerator
// of throughput_per_s) and whether it belongs to the op_wall_s population —
// the service's cache misses complete and count as work but are not the
// latency being gated.
type opResult struct {
	work float64
	cold bool
}

// instance is a set-up workload. op runs one operation and checks its
// output; an error is a failed op.
type instance interface {
	clients() int // concurrent closed-loop clients issuing ops
	op(c *opCtx) (opResult, error)
	// layers fills the per-layer metrics after the traced ops ran; probes
	// record their spans under sp.
	layers(ls layerSet, tr *tracer, sp span, ops []opSample)
	// digest folds the workload's exact counts: two commits that simulate
	// the same thing print the same digest.
	digest() uint64
	extraRSS() uint64 // peak RSS of helper processes, bytes
	close()
}

type workloadDef struct {
	name, why string
	setup     func(e env) (instance, error)
	// rssOps > 0 reads peak_rss_mb when that many ops have completed, not at
	// the end of the window. The daemon keeps every finished run and every
	// injected flow, so its memory grows with the work done: read at the end
	// of a timed window, a faster service would show as a fatter one. The
	// counts are about half of what this machine completes in 10 s.
	rssOps int
}

// The why strings are repeated in BENCHMARK.json; bench/README.md has the
// long form.
var workloads = []workloadDef{
	{"seq-packet", "one engine, flat 2000 routers: des + netsim + routing do all the work, no barrier, partitioner or wire; the sequential baseline", setupSeqPacket, 0},
	{"par-windows", "same net on 2 in-process engines under TOP2: 30k thin windows, so the pdes barrier and exchange are 40% of the engines' time", setupParWindows, 0},
	{"map-sweep", "core.Map(HPROF, k=16) on a 50-AS x 120-router net: graph, partition and the T_mll sweep only, no event executes", setupMapSweep, 0},
	{"dist-k4", "600-router simcheck scenario on 2 worker processes x 2 engines: the wire codec and the dist round trip per window dominate", setupDistK4, 0},
	{"service", "embedded runctl over loopback HTTP, closed loop, 7 of 8 submissions hit the setup cache: scheduler, cache and HTTP, tiny simulations", setupService, 1500},
	{"ingest", "one paced run fed by nproc agent connections as fast as credits allow: the ingest plane and the pump, not the kernel", setupIngest, 100},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// opSample is one measured operation.
type opSample struct {
	wall   float64 // seconds
	res    opResult
	alloc  uint64 // bytes allocated during the op (traced ops only)
	traced bool
	err    error
}

// result is one workload run.
type result struct {
	workload  string
	correct   bool
	attempted int
	failed    int
	e2e       map[string]sample
	layers    layerSet // traced runs only
	digest    uint64
}

// runWorkload sets the workload up, runs its ops and returns the metrics. A
// failed op is counted, not fatal: the caller decides the exit code from
// result.correct. A failed set-up or warm-up op is an error.
func runWorkload(cfg config) (*result, error) {
	def := findWorkload(cfg.workload)
	if def == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	var tr *tracer
	reps := setupReps
	if cfg.trace {
		tr = newTracer()
		reps = 1
	}
	size := fullSizes
	if cfg.tiny {
		size = tinySizes
		reps = 1
	}

	var inst instance
	var setups []float64
	for i := 0; i < reps; i++ {
		if inst != nil {
			inst.close()
			inst = nil
			runtime.GC()
		}
		t0 := time.Now()
		sp := tr.root("setup", -1, 0)
		var err error
		inst, err = def.setup(env{cfg: cfg, size: size, sp: sp})
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()

	r := &runner{cfg: cfg, inst: inst, tr: tr, rssOps: def.rssOps}
	// One warm-up op, discarded: first-touch page faults and lazily built
	// state are not what the ops after it pay.
	if s := r.timed(&opCtx{}, -1); s.err != nil {
		return nil, fmt.Errorf("%s: warm-up op: %w", cfg.workload, s.err)
	}
	if cfg.trace {
		// The untraced half is the baseline of harness.trace_overhead_ratio.
		r.phase(false, cfg.seconds/2)
		r.phase(true, cfg.seconds/2)
	} else {
		r.phase(false, cfg.seconds)
	}

	res := &result{workload: cfg.workload, e2e: map[string]sample{}, digest: inst.digest()}
	var walls, coldWalls, thr []float64
	var work float64
	for _, s := range r.samples {
		res.attempted++
		if s.err != nil {
			res.failed++
			fmt.Fprintf(cfg.out, "FAILED op: %s: %v\n", cfg.workload, s.err)
			continue
		}
		work += s.res.work
		if s.res.cold {
			coldWalls = append(coldWalls, s.wall)
			continue
		}
		walls = append(walls, s.wall)
		thr = append(thr, s.res.work/s.wall)
	}
	res.correct = res.failed == 0 && res.attempted > 0
	if len(walls) == 0 {
		// A run too short to see one op of the gated population (-ops 1 and
		// a cache miss): its latency is all there is to print.
		walls = coldWalls
	}
	if len(walls) == 0 {
		return res, nil
	}
	res.e2e["setup_s"] = summarize(setups)
	res.e2e["op_wall_s"] = summarize(walls)
	// One client: the median of work ÷ wall per op (GC between ops is outside
	// the timed region). Concurrent clients overlap, so there it is all the
	// work over the window's wall.
	t := summarize(thr)
	if inst.clients() > 1 {
		t = sample{value: work / r.window, q1: work / r.window, q3: work / r.window, n: 1}
	}
	res.e2e["throughput_per_s"] = t
	if r.rss == 0 {
		r.rss = peakRSS() + inst.extraRSS()
	}
	rss := float64(r.rss) / 1e6
	res.e2e["peak_rss_mb"] = sample{value: rss, q1: rss, q3: rss, n: 1}

	if cfg.trace {
		res.layers = layerSet{}
		var traced, plain []float64
		var tracedOps []opSample
		for _, s := range r.samples {
			if s.err != nil || s.res.cold {
				continue
			}
			if s.traced {
				traced = append(traced, s.wall)
				tracedOps = append(tracedOps, s)
			} else {
				plain = append(plain, s.wall)
			}
		}
		sp := tr.root("probes", -1, 0)
		inst.layers(res.layers, tr, sp, tracedOps)
		sp.end()
		if len(plain) > 0 && len(traced) > 0 {
			res.layers["harness.trace_overhead_ratio"] = median(traced) / median(plain)
		}
		cover, worst := tr.coverage()
		res.layers["harness.span_coverage"] = cover
		fmt.Fprintf(cfg.out, "span_coverage %s: %.4f of all op wall is inside a layer span; worst op %.4f\n", cfg.workload, cover, worst)
		res.layers["harness.failed_ops_share"] = float64(res.failed) / float64(res.attempted)
		if err := tr.write(cfg.traceOut, map[string]string{
			"tool": "massf bench", "workload": cfg.workload, "seed": strconv.FormatInt(cfg.seed, 10),
		}); err != nil {
			return nil, fmt.Errorf("%s: writing trace: %w", cfg.workload, err)
		}
		fmt.Fprintf(cfg.out, "trace %s: %s\n", cfg.workload, cfg.traceOut)
		for name, d := range tr.selfTimes() {
			fmt.Fprintf(cfg.out, "self_time %s %q %.6f s\n", cfg.workload, name, d.Seconds())
		}
	}
	return res, nil
}

// runner issues the ops of one run.
type runner struct {
	cfg  config
	inst instance
	tr   *tracer

	mu      sync.Mutex
	samples []opSample
	nextOp  int
	window  float64 // wall seconds of the phases run so far
	aborted bool
	rssOps  int
	rss     uint64 // peak RSS when rssOps ops had completed
}

// phase runs the closed loop for the given wall time (or cfg.ops ops).
func (r *runner) phase(traced bool, seconds float64) {
	n := r.inst.clients()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	issued := 0
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				r.mu.Lock()
				stop := r.aborted
				if r.cfg.ops > 0 {
					stop = stop || issued >= r.cfg.ops
				} else {
					stop = stop || (time.Now().After(deadline) && issued >= minOps)
				}
				if stop {
					r.mu.Unlock()
					return
				}
				issued++
				id := r.nextOp
				r.nextOp++
				r.mu.Unlock()
				if n == 1 {
					runtime.GC() // outside the timed region
				}
				s := r.timed(&opCtx{client: c, traced: traced}, id)
				r.mu.Lock()
				r.samples = append(r.samples, s)
				if len(r.samples) == r.rssOps {
					r.rss = peakRSS() + r.inst.extraRSS()
				}
				r.mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	r.window += time.Since(start).Seconds()
}

// timed runs one op under the op timeout. id < 0 marks the warm-up op.
func (r *runner) timed(c *opCtx, id int) opSample {
	s := opSample{traced: c.traced}
	var m0 runtime.MemStats
	if c.traced {
		runtime.ReadMemStats(&m0)
	}
	type out struct {
		res  opResult
		err  error
		wall float64
	}
	done := make(chan out, 1)
	go func() {
		// Timed on the op's own goroutine, as a client thread would time its
		// call: the hand-off to the waiting harness is not the program's.
		if c.traced {
			c.sp = r.tr.root("op", id, c.client)
		}
		t0 := time.Now()
		res, err := r.inst.op(c)
		wall := time.Since(t0).Seconds()
		c.sp.end()
		done <- out{res, err, wall}
	}()
	timer := time.NewTimer(opTimeout)
	defer timer.Stop()
	select {
	case o := <-done:
		s.res, s.err, s.wall = o.res, o.err, o.wall
	case <-timer.C:
		// The op's goroutine cannot be stopped; stop issuing ops and let the
		// process exit report the failure.
		s.err = fmt.Errorf("op timed out after %v", opTimeout)
		r.mu.Lock()
		r.aborted = true
		r.mu.Unlock()
	}
	if c.traced {
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		s.alloc = m1.TotalAlloc - m0.TotalAlloc
	}
	return s
}

// peakRSS returns VmHWM of the process pid ("self" for this one), in bytes.
func procPeakRSS(pid string) uint64 {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseUint(f[1], 10, 64)
				return kb << 10
			}
		}
	}
	return 0
}

func peakRSS() uint64 { return procPeakRSS("self") }

// fingerprint names the machine a result came from.
func fingerprint() string {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.Index(line, ":"); i >= 0 {
					cpu = strings.TrimSpace(line[i+1:])
				}
				break
			}
		}
	}
	kernel := "unknown"
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(data))
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s kernel=%s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), kernel)
}

// foldDigest hashes exact counts (FNV-1a over their decimal forms).
func foldDigest(counts ...uint64) uint64 {
	h := fnv.New64a()
	for _, c := range counts {
		fmt.Fprintf(h, "%d;", c)
	}
	return h.Sum64()
}
