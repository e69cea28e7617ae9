package main

import (
	"fmt"
	"runtime"
	"time"

	"massf/internal/core"
	"massf/internal/des"
	"massf/internal/experiments"
	"massf/internal/mabrite"
	"massf/internal/partition"
)

// mapInst is map-sweep: one core.Map(HPROF) per op on a multi-AS net whose
// profile came from a short N=1 pass in set-up. No event executes in an op.
type mapInst struct {
	e    env
	st   *experiments.Setup
	cfg  core.Config
	want *core.Mapping // every op must repeat its quality exactly
}

func setupMapSweep(e env) (instance, error) {
	sz := e.size
	sp := e.sp.child("mabrite.Generate")
	net, err := mabrite.Generate(mabrite.Options{
		ASes: sz.mapASes, RoutersPerAS: sz.mapRoutersPerAS, Hosts: sz.mapHosts, Seed: topoSeed,
	})
	sp.end()
	if err != nil {
		return nil, err
	}
	sc := experiments.Scale{
		Name: "bench", ASes: sz.mapASes, RoutersPerAS: sz.mapRoutersPerAS, Hosts: sz.mapHosts,
		Clients: sz.mapHosts * 8 / 10, Servers: sz.mapHosts * 19 / 100, AppHosts: 7,
		Engines: sz.mapEngines, Horizon: sz.mapProfileHorizon, EventCost: 15 * des.Microsecond,
		Seed: e.cfg.seed,
	}
	sp = e.sp.child("experiments.NewSetup")
	st, err := experiments.NewSetup(net, sc, true)
	sp.end()
	if err != nil {
		return nil, err
	}
	// The seeded part of the input: the traffic the profile is measured from.
	sp = e.sp.child("Setup.RunProfiling")
	err = st.RunProfiling(experiments.ScaLapack)
	sp.end()
	if err != nil {
		return nil, err
	}
	return &mapInst{e: e, st: st, cfg: core.Config{Engines: sz.mapEngines, Sync: st.Sync, Seed: topoSeed}}, nil
}

func (m *mapInst) clients() int { return 1 }

func (m *mapInst) op(c *opCtx) (opResult, error) {
	sp := c.sp.child("core.Map")
	got, err := core.Map(m.st.Net, core.HPROF, m.cfg, m.st.Profile)
	sp.end()
	if err != nil {
		return opResult{}, err
	}
	k := m.cfg.Engines
	if len(got.Part) != len(m.st.Net.Nodes) {
		return opResult{}, fmt.Errorf("mapping covers %d of %d nodes", len(got.Part), len(m.st.Net.Nodes))
	}
	seen := make([]bool, k)
	for _, p := range got.Part {
		if p < 0 || int(p) >= k {
			return opResult{}, fmt.Errorf("node mapped to engine %d of %d", p, k)
		}
		seen[p] = true
	}
	for p, ok := range seen {
		if !ok {
			return opResult{}, fmt.Errorf("engine %d of %d got no node", p, k)
		}
	}
	if m.want == nil {
		m.want = got
	} else if got.EdgeCut != m.want.EdgeCut || got.MLL != m.want.MLL || got.E != m.want.E {
		return opResult{}, fmt.Errorf("mapping quality moved: cut %d MLL %v E %v, first op had cut %d MLL %v E %v",
			got.EdgeCut, got.MLL, got.E, m.want.EdgeCut, m.want.MLL, m.want.E)
	}
	return opResult{work: float64(len(got.Part))}, nil
}

func (m *mapInst) digest() uint64 {
	w := m.want
	return foldDigest(uint64(w.EdgeCut), uint64(w.MLL), uint64(w.E*1e12), uint64(w.Candidates), uint64(w.Tmll))
}

func (m *mapInst) extraRSS() uint64 { return 0 }
func (m *mapInst) close()           {}

func (m *mapInst) layers(ls layerSet, tr *tracer, sp span, ops []opSample) {
	setupLayers(ls, tr, m.st)
	ls["profile.pass_s"] = median(tr.seconds("Setup.RunProfiling"))
	ls["core.map_s"] = median(tr.seconds("core.Map"))
	var alloc []float64
	for _, o := range ops {
		alloc = append(alloc, float64(o.alloc)/1e6)
	}
	ls["core.map_alloc_mb"] = median(alloc)
	ls["core.candidates"] = float64(m.want.Candidates)
	ls["core.edge_cut"] = float64(m.want.EdgeCut)
	ls["core.achieved_mll_us"] = float64(m.want.MLL) / float64(des.Microsecond)
	ls["core.mapping_efficiency"] = m.want.E

	// One graph build and one multilevel partition of the uncontracted
	// graph: the unit the sweep repeats per candidate.
	psp := sp.child("core.BuildGraph")
	t0 := time.Now()
	g := core.BuildGraph(m.st.Net, core.HPROF, m.st.Profile, m.cfg)
	ls["core.build_graph_s"] = time.Since(t0).Seconds()
	psp.end()
	k := m.cfg.Engines
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	psp = sp.child("partition.Partition")
	t0 = time.Now()
	part, err := partition.Partition(g, partition.Options{Parts: k, Seed: topoSeed})
	ls["partition.call_s"] = time.Since(t0).Seconds()
	psp.end()
	runtime.ReadMemStats(&m1)
	ls["partition.alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	if err == nil {
		ls["partition.balance"] = partition.Balance(g, part, k)
	}
}
