package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestMain lets the test binary stand in for the bench binary when dist-k4
// re-executes it as a worker: a worker process gets the bench flags, not
// testing's.
func TestMain(m *testing.M) {
	if os.Getenv(workerEnv) != "" {
		os.Exit(run(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the part of BENCHMARK.json the harness must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDeclarationsMatchBenchmarkJSON keeps the two lists of names, units,
// directions and bounds identical.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json {%q %q}, harness {%q %q}", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, harness %+v", i, m, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, harness %+v", i, m, d)
		}
	}
}

// TestSmoke runs every workload at smoke size — one untraced op, then one
// untraced and one traced op — and checks that each run is correct and that
// its result line carries every declared metric exactly once: the end-to-end
// ones untraced, the per-layer ones traced. No timing is asserted.
func TestSmoke(t *testing.T) {
	b := loadBenchmarkJSON(t)
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			if w.Name == "dist-k4" && testing.Short() {
				t.Skip("spawns worker processes")
			}
			for _, traced := range []bool{false, true} {
				var out bytes.Buffer
				res, err := runWorkload(config{
					workload: w.Name, seed: 1, ops: 1, tiny: true, trace: traced,
					traceOut: filepath.Join(t.TempDir(), "trace.json"), exe: exe, out: &out,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.correct || res.failed != 0 || res.attempted == 0 {
					t.Fatalf("traced=%v: correct=%v attempted=%d failed=%d\n%s", traced, res.correct, res.attempted, res.failed, out.String())
				}
				res.print(&out, traced)
				lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
				var line wireResult
				if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
					t.Fatalf("result line: %v", err)
				}
				want := map[string]string{}
				if traced {
					for _, m := range b.PerLayer {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range b.EndToEnd {
						want[m.Name] = m.Unit
					}
				}
				if len(line.Metrics) != len(want) {
					t.Errorf("traced=%v: result line has %d metrics, BENCHMARK.json declares %d", traced, len(line.Metrics), len(want))
				}
				for name, unit := range want {
					got, ok := line.Metrics[name]
					if !ok {
						t.Errorf("traced=%v: metric %s is not printed", traced, name)
					} else if got.Unit != unit {
						t.Errorf("traced=%v: metric %s printed in %q, declared in %q", traced, name, got.Unit, unit)
					}
					if !traced && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", name, got.Value)
					}
				}
			}
		})
	}
}
