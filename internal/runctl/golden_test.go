package runctl

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"massf/internal/des"
	"massf/internal/experiments"
	"massf/internal/faults"
	"massf/internal/metrics"
	"massf/internal/runspec"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from this build's output")

// goldenDoc is every deterministic output of a finished run: what a client
// can read back from the daemon, minus wall-clock measurements.
type goldenDoc struct {
	Approach  string                  `json:"approach"`
	Fidelity  string                  `json:"fidelity"`
	MLLms     float64                 `json:"mll_ms"`
	Windows   uint64                  `json:"windows"`
	Events    uint64                  `json:"events"`
	Remote    uint64                  `json:"remote_events"`
	Report    *metrics.Report         `json:"report"`
	Net       *experiments.NetSummary `json:"net"`
	Partition string                  `json:"partition_sha256"`
	Profile   string                  `json:"profile_sha256"`
}

// TestGoldenKeptPath pins the daemon's results for one small spec per
// fidelity, plus one that maps from its own profiling pass. The goldens
// were captured at the commit before the launch path moved into
// internal/experiments, so a pass means a spec submitted to massfd produces
// byte-identical results before and after that move.
func TestGoldenKeptPath(t *testing.T) {
	for _, c := range []struct{ approach, fidelity string }{
		{"TOP2", runspec.FidelityPacket},
		{"TOP2", runspec.FidelityHybrid},
		{"HPROF", runspec.FidelityPacket},
	} {
		approach, fidelity := c.approach, c.fidelity
		t.Run(approach+"_"+fidelity, func(t *testing.T) {
			m := NewManagerOpts(Options{Workers: 1, RingCap: 256})
			defer shutdownMgr(t, m)
			r, err := m.Submit(Spec{
				Flat:     &FlatSpec{Routers: 120, Hosts: 40},
				Approach: approach,
				App:      "scalapack",
				RunSpec:  runspec.RunSpec{Engines: 2, Seconds: 1, Seed: 7, FlowFidelity: fidelity},
			})
			if err != nil {
				t.Fatal(err)
			}
			info := waitRun(t, r, 60*time.Second, func(i Info) bool { return i.State.Terminal() })
			if info.State != StateDone {
				t.Fatalf("run ended %s (err=%q)", info.State, info.Error)
			}
			rep := *info.Report
			rep.WallSec = 0
			var part, prof bytes.Buffer
			for _, e := range r.Partition() {
				fmt.Fprintln(&part, e)
			}
			if err := r.CapturedProfile().Write(&prof); err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(goldenDoc{
				Approach: info.Approach, Fidelity: info.Fidelity, MLLms: info.MLLms,
				Windows: info.Windows, Events: info.Events, Remote: info.Remote,
				Report: &rep, Net: info.Net,
				Partition: fmt.Sprintf("%x", sha256.Sum256(part.Bytes())),
				Profile:   fmt.Sprintf("%x", sha256.Sum256(prof.Bytes())),
			}, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "flat120_"+approach+"_k2_"+fidelity+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s differs from the pre-refactor capture:\ngot:\n%s\nwant:\n%s", path, got, want)
			}
		})
	}
}

// TestPromSnapshotPinned pins a finished run's per-run Prometheus snapshot
// (GET /runs/{id}/metrics?format=prom) and Info's live counters for a
// flat-120, k=2 run under a two-event fault script (host 120 down from
// 200 to 500 ms, so both fault and tail drops show): every family's name,
// type, help and label set, and every value the simulation determines.
// Wall-clock values are masked as "*": the setup gauge, and the histograms'
// buckets and sums (a histogram keeps its bucket bounds and _count).
func TestPromSnapshotPinned(t *testing.T) {
	m := NewManagerOpts(Options{Workers: 1, RingCap: 256})
	defer shutdownMgr(t, m)
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()
	spec := Spec{
		Flat:     &FlatSpec{Routers: 120, Hosts: 40},
		Approach: "TOP2",
		App:      "scalapack",
		RunSpec:  runspec.RunSpec{Engines: 2, Seconds: 1, Seed: 7},
	}
	spec.Faults = &faults.Script{Events: faults.NodeOutage(120, 200*des.Millisecond, 300*des.Millisecond)}
	info := submitSpec(t, ts.URL, spec)
	done := waitState(t, ts.URL, info.ID, 60*time.Second, func(i Info) bool { return i.State.Terminal() })
	if done.State != StateDone {
		t.Fatalf("run ended %s (err=%q)", done.State, done.Error)
	}
	resp, err := http.Get(ts.URL + APIPrefix + "/runs/" + info.ID + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	prom, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	fmt.Fprintf(&got, "info windows=%d events=%d remote_events=%d sim_time_sec=%g\n",
		done.Windows, done.Events, done.Remote, done.SimTimeSec)
	for _, line := range strings.Split(strings.TrimSuffix(string(prom), "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			series, _, _ := strings.Cut(line, " ")
			series = strings.ReplaceAll(series, info.ID, "RUN")
			name, _, _ := strings.Cut(series, "{")
			if strings.HasSuffix(name, "_bucket") || strings.HasSuffix(name, "_sum") || name == "massf_sim_setup_ns" {
				line = series + " *"
			} else {
				line = series + line[strings.LastIndexByte(line, ' '):]
			}
		}
		fmt.Fprintln(&got, line)
	}
	path := filepath.Join("testdata", "flat120_TOP2_k2_faults.prom")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("%s differs:\ngot:\n%s\nwant:\n%s", path, got.Bytes(), want)
	}
}
