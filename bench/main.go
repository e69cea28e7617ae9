// Command bench is the repository's benchmark: six workloads that each load
// a different layer of massf, four end-to-end metrics with fixed regression
// bounds, and a traced pass that prints what every layer cost. It measures
// each layer from outside, by timing calls into exported functions.
//
//	go run ./bench                       every workload, each in a child process
//	go run ./bench -workload map-sweep   one workload, in this process
//	go run ./bench -trace 1              the traced pass: per-layer metrics
//	go run ./bench -sets 2               do two sets agree within the bounds?
//
// BENCHMARK.json names `bash bench/run.sh`, which builds this package inside
// the checkout and runs it with the driver's flags. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workload   = fs.String("workload", "", "run this workload in-process (default: every workload, each in a child process)")
		seed       = fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds    = fs.Float64("seconds", 10, "length of the measured window per workload")
		ops        = fs.Int("ops", 0, "run exactly this many ops instead of a timed window")
		trace      = fs.Int("trace", 0, "1: the traced pass — per-layer metrics instead of end-to-end ones")
		traceOut   = fs.String("trace-out", "", "Chrome trace path (default .bench_build/trace-<workload>.json)")
		sets       = fs.Int("sets", 1, "complete sets to run back to back; prints whether their medians agree within the bounds")
		tiny       = fs.Bool("tiny", false, "smoke-test sizes")
		worker     = fs.String("worker", "", "internal: serve dist jobs from the coordinator at this address")
		workerName = fs.String("worker-name", "worker", "internal: name reported to the coordinator")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *worker != "" {
		runWorker(*worker, *workerName, *trace == 1)
		return 0
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	cfg := config{
		workload: *workload, seed: *seed, seconds: *seconds, ops: *ops,
		trace: *trace == 1, traceOut: *traceOut, tiny: *tiny, exe: exe, out: os.Stdout,
	}
	if cfg.workload == "" {
		return runAll(cfg, args, *sets)
	}
	if cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(".bench_build", "trace-"+cfg.workload+".json")
	}
	// A hang anywhere — set-up included — must end as a failure naming the
	// workload, not as a stuck benchmark.
	watchdog := time.AfterFunc(170*time.Second, func() {
		fmt.Fprintf(os.Stderr, "bench: %s: no result after 170 s, giving up\n", cfg.workload)
		os.Exit(1)
	})
	defer watchdog.Stop()
	fmt.Fprintf(cfg.out, "machine %s\n", fingerprint())
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	res.print(cfg.out, cfg.trace)
	if !res.correct {
		return 1
	}
	return 0
}

// wireMetric and wireResult are the result line's JSON, the contract with
// the driver: the last line of standard output.
type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type wireResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]wireMetric `json:"metrics"`
}

// print writes every metric by name with its unit, spread and bound, then
// the result line: end-to-end metrics from an untraced run, per-layer ones
// from a traced run.
func (r *result) print(w io.Writer, traced bool) {
	out := wireResult{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]wireMetric{}}
	fmt.Fprintf(w, "sim_digest %s %016x\n", r.workload, r.digest)
	for _, d := range endToEnd {
		s := r.e2e[d.name]
		mark := ""
		if s.unresolved(d.bound) {
			mark = " unresolved"
		}
		fmt.Fprintf(w, "metric %s %s %.6g %s q1=%.6g q3=%.6g n=%d bound=%.2f%s\n",
			r.workload, d.name, s.value, d.unit, s.q1, s.q3, s.n, d.bound, mark)
		if !traced {
			out.Metrics[d.name] = wireMetric{s.value, d.unit}
		}
	}
	if traced {
		for _, d := range perLayer {
			v, ok := r.layers[d.name]
			delete(r.layers, d.name)
			note := ""
			if !ok {
				note = " (layer not exercised)"
			}
			fmt.Fprintf(w, "layer %s %s %.6g %s%s\n", r.workload, d.name, v, d.unit, note)
			out.Metrics[d.name] = wireMetric{v, d.unit}
		}
		for name := range r.layers {
			panic("bench: undeclared per-layer metric " + name)
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // a NaN or Inf metric: a bug in the harness
	}
	fmt.Fprintf(w, "%s\n", line)
}

// runAll runs every workload in a child process of its own, so that set-up
// time and peak memory are per workload, for the given number of sets, and
// prints per metric whether the sets agree within its bound.
func runAll(cfg config, args []string, sets int) int {
	fmt.Printf("machine %s\n", fingerprint())
	type key struct{ workload, metric string }
	values := map[key][]float64{}
	digests := map[string][]string{}
	failed := false
	for set := 0; set < sets; set++ {
		for _, w := range workloads {
			child := append([]string{"-workload", w.name}, args...)
			res, digest, err := runChild(cfg.exe, child)
			if err != nil {
				fmt.Printf("FAILED %s: %v\n", w.name, err)
				failed = true
				continue
			}
			if !res.Correct || res.Failed > 0 {
				failed = true
			}
			digests[w.name] = append(digests[w.name], digest)
			for name, m := range res.Metrics {
				k := key{w.name, name}
				values[k] = append(values[k], m.Value)
			}
		}
	}
	if sets > 1 && !cfg.trace {
		fmt.Printf("\nagreement of %d sets, per end-to-end metric and workload:\n", sets)
		for _, w := range workloads {
			for _, d := range endToEnd {
				v := values[key{w.name, d.name}]
				if len(v) < 2 {
					continue
				}
				lo, hi := v[0], v[0]
				for _, x := range v {
					lo, hi = math.Min(lo, x), math.Max(hi, x)
				}
				verdict := "agree"
				if lo <= 0 || (hi-lo)/lo > d.bound {
					verdict = "DISAGREE"
					failed = true
				}
				fmt.Printf("  %-12s %-18s %v %s  spread %.1f%% bound %.0f%%  %s\n",
					w.name, d.name, v, d.unit, 100*(hi-lo)/lo, 100*d.bound, verdict)
			}
			ds := digests[w.name]
			for _, x := range ds {
				if x != ds[0] {
					fmt.Printf("  %-12s sim_digest differs between sets: %v  DISAGREE\n", w.name, ds)
					failed = true
					break
				}
			}
		}
	}
	if failed {
		return 1
	}
	return 0
}

// runChild runs one workload in a child, echoes its output and parses the
// result line.
func runChild(exe string, args []string) (*wireResult, string, error) {
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, "", err
	}
	if err := cmd.Start(); err != nil {
		return nil, "", err
	}
	var last, digest string
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		last = sc.Text()
		if strings.HasPrefix(last, "sim_digest ") {
			digest = last
		}
		if !strings.HasPrefix(last, "{") {
			fmt.Println(last)
		}
	}
	werr := cmd.Wait()
	var res wireResult
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if werr != nil {
			return nil, "", werr
		}
		return nil, "", fmt.Errorf("no result line: %w", err)
	}
	return &res, digest, nil
}
