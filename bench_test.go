// Benchmark harness: one bench per table/figure in the paper's evaluation
// (Figures 3, 5–13, plus the headline claims) and ablation benches for the
// design choices called out in DESIGN.md. Each figure bench regenerates
// and prints the same series the paper reports (once per run) and times
// the computation that produces it.
//
// By default the harness runs at a small bench scale so `go test -bench=.`
// completes quickly; set MASSF_FULL=1 to run the paper's 20,000-router /
// 100-AS scale.
package massf_test

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"

	"massf/internal/cluster"
	"massf/internal/core"
	"massf/internal/experiments"
	"massf/internal/graph"
	"massf/internal/metrics"
	"massf/internal/partition"
)

// suite lazily builds and caches the evaluated testbeds shared by the
// figure benches.
type suite struct {
	once  sync.Once
	setup *experiments.Setup
	evals []*experiments.Eval
	err   error
}

var suites = map[bool]*suite{false: {}, true: {}}

func getSuite(b *testing.B, multi bool) *suite {
	s := suites[multi]
	s.once.Do(func() {
		sc := experiments.BenchFromEnv()
		if multi {
			s.setup, s.err = experiments.BuildMultiAS(sc)
		} else {
			s.setup, s.err = experiments.BuildSingleAS(sc)
		}
		if s.err != nil {
			return
		}
		for _, w := range []experiments.Workload{experiments.ScaLapack, experiments.GridNPB} {
			ev, err := experiments.Evaluate(s.setup, w)
			if err != nil {
				s.err = err
				return
			}
			s.evals = append(s.evals, ev)
		}
	})
	if s.err != nil {
		b.Fatal(s.err)
	}
	return s
}

var printOnce sync.Map

func printTable(name string, t *experiments.Table) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		t.Fprint(os.Stdout)
		fmt.Println()
	}
}

// BenchmarkFig5SyncCost regenerates Figure 5: the synchronization cost of
// the modeled TeraGrid cluster versus engine-node count.
func BenchmarkFig5SyncCost(b *testing.B) {
	m := cluster.DefaultTeraGrid()
	for i := 0; i < b.N; i++ {
		nodes, cost := cluster.Fig5Points(m)
		if len(nodes) != len(cost) {
			b.Fatal("series mismatch")
		}
	}
	printTable("fig5", experiments.Fig5Table(m))
}

// BenchmarkFig5SyncCostMeasured measures real goroutine barrier costs on
// the host for the same node counts (capped at 32 parties locally).
func BenchmarkFig5SyncCostMeasured(b *testing.B) {
	m := cluster.NewMeasured()
	m.Rounds = 16
	for i := 0; i < b.N; i++ {
		for _, n := range []int{2, 4, 8, 16, 32} {
			if m.SyncCost(n) < 0 {
				b.Fatal("negative cost")
			}
		}
	}
}

// BenchmarkFig3LoadVariation regenerates Figure 3: per-engine load over
// the lifetime of the simulation (from the HPROF single-AS run).
func BenchmarkFig3LoadVariation(b *testing.B) {
	s := getSuite(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.evals[0].Fig3 == nil {
			b.Fatal("no Fig3 data")
		}
		_ = experiments.Fig3Table(s.evals[0].Fig3)
	}
	printTable("fig3", experiments.Fig3Table(s.evals[0].Fig3))
}

// simTimeBench times one full mapped parallel simulation (the paper's
// headline operation) and prints the figure's table.
func simTimeBench(b *testing.B, multi bool, fig string) {
	s := getSuite(b, multi)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := s.setup.RunMapping(core.HPROF, experiments.ScaLapack)
		if err != nil {
			b.Fatal(err)
		}
		if out.Result.TotalEvents == 0 {
			b.Fatal("empty run")
		}
	}
	b.StopTimer()
	printTable(fig, experiments.SimTimeTable(s.evals, multi))
}

// BenchmarkFig6SimTimeSingleAS regenerates Figure 6.
func BenchmarkFig6SimTimeSingleAS(b *testing.B) { simTimeBench(b, false, "fig6") }

// BenchmarkFig10SimTimeMultiAS regenerates Figure 10.
func BenchmarkFig10SimTimeMultiAS(b *testing.B) { simTimeBench(b, true, "fig10") }

// mllBench times the mapping stage of every approach (the partitioner
// work behind Figures 7 and 11) and prints the achieved-MLL table.
func mllBench(b *testing.B, multi bool, fig string) {
	s := getSuite(b, multi)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range append(append([]core.Approach{}, experiments.SimulatedApproaches...),
			experiments.MapOnlyApproaches...) {
			if _, err := s.setup.MapApproach(a); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	printTable(fig, experiments.MLLTable(s.evals, multi))
}

// BenchmarkFig7MLLSingleAS regenerates Figure 7.
func BenchmarkFig7MLLSingleAS(b *testing.B) { mllBench(b, false, "fig7") }

// BenchmarkFig11MLLMultiAS regenerates Figure 11.
func BenchmarkFig11MLLMultiAS(b *testing.B) { mllBench(b, true, "fig11") }

// metricBench times the Section 4.1 metric computations over the cached
// runs and prints the corresponding table.
func metricBench(b *testing.B, multi bool, fig string, table func([]*experiments.Eval, bool) *experiments.Table) {
	s := getSuite(b, multi)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ev := range s.evals {
			for _, a := range experiments.SimulatedApproaches {
				r := ev.RowFor(a)
				pe := metrics.ParallelEfficiency(r.Report.TotalEvents, s.setup.Scale.EventCost,
					s.setup.Scale.Engines, int64(r.Report.SimTimeSec*1e9))
				if pe < 0 || r.Report.Imbalance < 0 {
					b.Fatal("negative metric")
				}
			}
		}
		if table(s.evals, multi) == nil {
			b.Fatal("no table")
		}
	}
	b.StopTimer()
	printTable(fig, table(s.evals, multi))
}

// BenchmarkFig8ImbalanceSingleAS regenerates Figure 8.
func BenchmarkFig8ImbalanceSingleAS(b *testing.B) {
	metricBench(b, false, "fig8", experiments.ImbalanceTable)
}

// BenchmarkFig12ImbalanceMultiAS regenerates Figure 12.
func BenchmarkFig12ImbalanceMultiAS(b *testing.B) {
	metricBench(b, true, "fig12", experiments.ImbalanceTable)
}

// BenchmarkFig9EfficiencySingleAS regenerates Figure 9.
func BenchmarkFig9EfficiencySingleAS(b *testing.B) {
	metricBench(b, false, "fig9", experiments.EfficiencyTable)
}

// BenchmarkFig13EfficiencyMultiAS regenerates Figure 13.
func BenchmarkFig13EfficiencyMultiAS(b *testing.B) {
	metricBench(b, true, "fig13", experiments.EfficiencyTable)
}

// BenchmarkHeadline derives the paper's headline claims (−40% imbalance,
// −50% simulation time, PE ≈ 0.40) from both testbeds.
func BenchmarkHeadline(b *testing.B) {
	single := getSuite(b, false)
	multi := getSuite(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(experiments.Headlines(single.evals)) == 0 || len(experiments.Headlines(multi.evals)) == 0 {
			b.Fatal("no headlines")
		}
	}
	b.StopTimer()
	printTable("headline-single", experiments.HeadlineTable(single.evals, false))
	printTable("headline-multi", experiments.HeadlineTable(multi.evals, true))
}

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationTmllStep sweeps the hierarchical threshold step size:
// finer steps examine more candidates for (possibly) a better E.
func BenchmarkAblationTmllStep(b *testing.B) {
	s := getSuite(b, false)
	var t *experiments.Table
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if t, err = experiments.AblationTmllStep(s.setup); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printTable("ablation-step", t)
}

// BenchmarkAblationSelectionMetric compares selecting the sweep candidate
// by E = Es·Ec (the paper's metric) against Es-only and Ec-only selection:
// maximizing either factor alone picks a degenerate tradeoff (Section
// 3.4.3: "maximizing Es and Ec separately does not work").
func BenchmarkAblationSelectionMetric(b *testing.B) {
	s := getSuite(b, false)
	var t *experiments.Table
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if t, err = experiments.AblationSelectionMetric(s.setup); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printTable("ablation-select", t)
}

// BenchmarkAblationRefinement measures what the uncoarsening refinement
// phase buys the partitioner on a 20k-node power-law graph.
func BenchmarkAblationRefinement(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.AblationRefinement(20000, 90, int64(i))
	}
	printTable("ablation-refine", t)
}

// BenchmarkAblationEdgeWeights compares the TOP and TOP2 latency-to-weight
// conversions (Section 4.3's manual tuning) by achieved MLL.
func BenchmarkAblationEdgeWeights(b *testing.B) {
	s := getSuite(b, false)
	var t *experiments.Table
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if t, err = experiments.AblationEdgeWeights(s.setup); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printTable("ablation-weights", t)
}

// BenchmarkPartition20k times the raw partitioner at paper scale — the
// paper notes METIS partitions 10k vertices in ~10 s; this implementation
// is far faster, which is what makes the thousands-of-thresholds sweep
// feasible.
func BenchmarkPartition20k(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	n := 20000
	g := graph.New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(i, rng.Intn(i), 1, int64(1+rng.Intn(40_000_000)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partition.Partition(g, partition.Options{Parts: 90, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
