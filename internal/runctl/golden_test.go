package runctl

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"massf/internal/experiments"
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
