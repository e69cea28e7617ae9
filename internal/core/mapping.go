// Package core implements the paper's primary contribution: the family of
// load-balance mapping approaches that assign virtual network nodes to
// simulation engine nodes —
//
//   - TOP / TOP2: topology-based node weights (total incident bandwidth)
//     and latency-derived edge weights; TOP2 is the paper's manually tuned
//     steeper latency-to-weight conversion for large networks (Section 4.3).
//   - PROF / PROF2: profile-based node weights (measured per-node event
//     counts from a prior profiling run) and traffic-aware edge weights.
//   - HTOP / HPROF: the hierarchical approaches (Section 3.4.3): contract
//     all links below a latency threshold T_mll, partition the contracted
//     graph, and sweep T_mll, selecting the partition maximizing the
//     efficiency metric E = Es · Ec where Es = (MLL − C_N)/MLL captures
//     synchronization efficiency and Ec = C_avg/C_max captures load
//     balance.
//   - RANDOM: the naive baseline, also used as the initial partition for
//     profiling runs.
package core

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"massf/internal/cluster"
	"massf/internal/des"
	"massf/internal/graph"
	"massf/internal/model"
	"massf/internal/parallel"
	"massf/internal/partition"
	"massf/internal/profile"
)

// Approach identifies a mapping strategy.
type Approach int

// The mapping approaches evaluated in the paper, plus PLACE — the
// topology-and-application-placement approach of the authors' earlier work
// (SC 2003), which the paper's Section 3.3 trio ("topology only, topology
// and application placement, and profile-based") refers to.
const (
	RANDOM Approach = iota
	TOP
	TOP2
	PLACE
	PROF
	PROF2
	HTOP
	HPROF
)

// String implements fmt.Stringer.
func (a Approach) String() string {
	switch a {
	case RANDOM:
		return "RANDOM"
	case TOP:
		return "TOP"
	case TOP2:
		return "TOP2"
	case PLACE:
		return "PLACE"
	case PROF:
		return "PROF"
	case PROF2:
		return "PROF2"
	case HTOP:
		return "HTOP"
	case HPROF:
		return "HPROF"
	default:
		return fmt.Sprintf("Approach(%d)", int(a))
	}
}

// ParseApproach is the inverse of String, ignoring case.
func ParseApproach(name string) (Approach, error) {
	for a := RANDOM; a <= HPROF; a++ {
		if strings.EqualFold(name, a.String()) {
			return a, nil
		}
	}
	return 0, fmt.Errorf("core: unknown approach %q", name)
}

// Hierarchical reports whether the approach uses the T_mll sweep.
func (a Approach) Hierarchical() bool { return a == HTOP || a == HPROF }

// ProfileBased reports whether the approach needs a traffic profile.
func (a Approach) ProfileBased() bool { return a == PROF || a == PROF2 || a == HPROF }

// Config tunes the mapper.
type Config struct {
	// Engines is the number of simulation engine nodes N.
	Engines int
	// Sync is the cluster synchronization cost model; its C(N) sets the
	// lower bound of the T_mll sweep and the Es factor. Defaults to the
	// TeraGrid Figure 5 model.
	Sync cluster.SyncCostModel
	// TmllStep is the sweep granularity (paper: 0.1 ms).
	TmllStep des.Time
	// Seed makes mapping deterministic.
	Seed int64
	// KeepSweep records every evaluated threshold in Mapping.Sweep
	// (hierarchical approaches only).
	KeepSweep bool
	// AppHosts lists the hosts running foreground applications; the PLACE
	// approach boosts their (and their neighborhoods') node weights and
	// requires at least one.
	AppHosts []model.NodeID
}

func (c *Config) setDefaults() {
	if c.Sync == nil {
		c.Sync = cluster.DefaultTeraGrid()
	}
	if c.TmllStep <= 0 {
		c.TmllStep = 100 * des.Microsecond
	}
}

// Mapping is the result of a mapping approach: the partition plus the
// quantities the evaluation metrics need.
type Mapping struct {
	// Approach that produced this mapping.
	Approach Approach
	// Part assigns each network node to an engine.
	Part []int32
	// MLL is the achieved minimum link latency across the cut — the
	// conservative window the simulation may use. Equal to the horizon
	// stand-in MaxMLL when nothing is cut.
	MLL des.Time
	// EdgeCut is the partitioner's cut weight.
	EdgeCut int64
	// EstLoad is the estimated per-engine load (summed node weights).
	EstLoad []int64
	// Tmll is the chosen contraction threshold (hierarchical approaches).
	Tmll des.Time
	// E, Es, Ec evaluate the chosen partition (E = Es·Ec).
	E, Es, Ec float64
	// Candidates is the number of thresholds evaluated in the sweep.
	Candidates int
	// Sweep records every threshold evaluated by a hierarchical mapping
	// when Config.KeepSweep is set — the data behind the E = Es·Ec
	// selection ablation.
	Sweep []Candidate
}

// Candidate summarizes one evaluated T_mll threshold of the hierarchical
// sweep.
type Candidate struct {
	Tmll       des.Time
	MLL        des.Time
	E, Es, Ec  float64
	Supernodes int
}

// MaxMLL is the MLL reported when a partition cuts nothing (single engine
// or fully contracted graph): effectively unbounded lookahead.
const MaxMLL = des.Time(100 * des.Millisecond)

// Window is the conservative window a run of this mapping uses: the
// achieved MLL, capped at MaxMLL.
func (m *Mapping) Window() des.Time { return min(m.MLL, MaxMLL) }

// Map partitions net for the given approach. prof may be nil for
// non-profile-based approaches and on one engine, where nothing is cut; it
// is required (same network) for PROF/PROF2/HPROF otherwise. PLACE on
// more than one engine requires cfg.AppHosts.
func Map(net *model.Network, a Approach, cfg Config, prof *profile.Profile) (*Mapping, error) {
	if cfg.Engines < 1 {
		return nil, fmt.Errorf("core: need ≥ 1 engine, got %d", cfg.Engines)
	}
	if cfg.Engines == 1 {
		m := &Mapping{Approach: a, Part: make([]int32, len(net.Nodes)), MLL: MaxMLL, E: 1, Es: 1, Ec: 1}
		m.EstLoad = []int64{int64(len(net.Nodes))}
		return m, nil
	}
	cfg.setDefaults()
	if a.ProfileBased() {
		if prof == nil {
			return nil, fmt.Errorf("core: %v requires a traffic profile", a)
		}
		if len(prof.NodeEvents) != len(net.Nodes) || len(prof.LinkBits) != len(net.Links) {
			return nil, fmt.Errorf("core: profile shape (%d nodes, %d links) does not match network (%d, %d)",
				len(prof.NodeEvents), len(prof.LinkBits), len(net.Nodes), len(net.Links))
		}
	}
	if a == PLACE && len(cfg.AppHosts) == 0 {
		return nil, fmt.Errorf("core: %v requires application hosts", a)
	}
	if a == RANDOM {
		return mapRandom(net, cfg), nil
	}
	g := BuildGraph(net, a, prof, cfg)
	if a.Hierarchical() {
		return mapHierarchical(net, g, a, cfg)
	}
	return mapFlat(net, g, a, cfg)
}

// mapRandom assigns nodes uniformly at random — the naive baseline and the
// initial partition for profiling runs.
func mapRandom(net *model.Network, cfg Config) *Mapping {
	rng := rand.New(rand.NewSource(cfg.Seed))
	part := make([]int32, len(net.Nodes))
	for i := range part {
		part[i] = int32(rng.Intn(cfg.Engines))
	}
	m := &Mapping{Approach: RANDOM, Part: part}
	finishMapping(net, nil, m, cfg)
	return m
}

// flatTrials is how many partitioner seeds the flat approaches try,
// keeping the smallest edge cut (METIS-quality compensation).
const flatTrials = 4

// mapFlat runs the partitioner on the full graph (TOP, TOP2, PROF, PROF2),
// taking the best cut over a few seeds.
func mapFlat(net *model.Network, g *graph.Graph, a Approach, cfg Config) (*Mapping, error) {
	var best []int32
	var bestCut int64 = -1
	for trial := 0; trial < flatTrials; trial++ {
		part, err := partition.Partition(g, partition.Options{
			Parts: cfg.Engines, Seed: cfg.Seed + int64(trial)*65537,
		})
		if err != nil {
			return nil, err
		}
		cut := g.EvaluatePartition(part, cfg.Engines).EdgeCut
		if bestCut < 0 || cut < bestCut {
			best, bestCut = part, cut
		}
	}
	m := &Mapping{Approach: a, Part: best}
	finishMapping(net, g, m, cfg)
	return m, nil
}

// mapHierarchical implements the Section 3.4.3 algorithm: sweep the
// contraction threshold T_mll from the synchronization cost upward,
// partition each contracted graph, evaluate E = Es·Ec, keep the best.
//
// Contraction is monotone in T_mll, and a step that merges no components
// leaves the contracted graph — numbering included — unchanged, so the
// partitioner (same graph, same seed) would return the same partition.
// Such a step reuses the previous candidate's evaluation: it counts as a
// candidate and records its own Sweep entry, and since its E only ties the
// earlier threshold's, the earlier threshold stays chosen.
//
// The candidates that do need a partition are independent of each other,
// so up to GOMAXPROCS workers take them in sweep order (see sweep) and
// build, partition and score each in their own storage.
func mapHierarchical(net *model.Network, g *graph.Graph, a Approach, cfg Config) (*Mapping, error) {
	syncCost := des.Time(cfg.Sync.SyncCost(cfg.Engines))
	maxT := des.Time(g.MaxEdgeLatency()) // the sweep's cap: the largest link latency
	// The sweep starts just above C_N ("we require a Tmll to be larger
	// than the synchronization cost"), rounded up to the step.
	start := ((syncCost / cfg.TmllStep) + 1) * cfg.TmllStep
	s := &sweep{contractor: graph.NewContractor(g), next: start, cfg: cfg, maxT: maxT}
	thresholds := int(max(0, (maxT-start)/cfg.TmllStep+1)) // bounds the candidates, and so the workers
	parallel.Run(thresholds, func(stopped func() bool) {
		var list graph.EdgeList
		for !stopped() {
			idx, tmll, snap, ok := s.claim()
			if !ok {
				return
			}
			c := snap.Build(&list)
			dumpedPart, err := partition.Partition(c.Graph, partition.Options{
				Parts: cfg.Engines, Seed: cfg.Seed,
			})
			var cand *Mapping
			if err == nil {
				cand = &Mapping{Approach: a, Part: c.Project(dumpedPart), Tmll: tmll}
				finishMapping(net, g, cand, cfg)
			}
			s.fold(idx, cand, err)
		}
	})
	if s.err != nil {
		return nil, s.err
	}
	if s.best == nil {
		// Even the first threshold over-contracted: fall back to flat
		// partitioning (tiny networks).
		m, err := mapFlat(net, g, a, cfg)
		if err != nil {
			return nil, err
		}
		m.Candidates = 0
		return m, nil
	}
	for i := range s.entries {
		e := &s.entries[i]
		ev := s.evals[s.shares[i]]
		e.MLL, e.E, e.Es, e.Ec = ev.MLL, ev.E, ev.Es, ev.Ec
	}
	s.best.Candidates = s.steps
	s.best.Sweep = s.entries
	return s.best, nil
}

// sweep is the state of one T_mll sweep that its workers share; mu guards
// all of it. A worker claims the next candidate — advancing the Contractor
// past thresholds that merge nothing — and folds the candidate's
// evaluation back once it is scored. So the sweep runs ahead of the
// partitioning by at most one candidate per worker, and the result is the
// one a single goroutine taking the candidates in order would keep: the
// highest E, ties going to the lowest threshold, and on failure the error
// of the lowest failing threshold.
type sweep struct {
	mu         sync.Mutex
	contractor *graph.Contractor
	cfg        Config
	next, maxT des.Time // the next threshold to evaluate, and the last
	claimed    int      // candidates claimed for partitioning
	steps      int      // thresholds evaluated: Mapping.Candidates
	done       bool     // too few supernodes for the engines: the sweep is over

	// With KeepSweep: one entry per threshold, which takes its evaluation
	// from the claimed candidate shares[i], recorded in evals.
	entries []Candidate
	shares  []int
	evals   []Candidate

	best    *Mapping
	bestIdx int
	err     error
	errIdx  int
}

// claim advances the sweep to the next threshold whose contraction is new
// and returns its claim index, threshold and snapshot. ok is false once
// the sweep is over or a claimed candidate has failed.
func (s *sweep) claim() (idx int, tmll des.Time, snap graph.Snapshot, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.done && s.err == nil && s.next <= s.maxT {
		tmll = s.next
		s.next += s.cfg.TmllStep
		merged := s.contractor.Advance(int64(tmll))
		if s.contractor.Len() < s.cfg.Engines {
			s.done = true // not enough supernodes for the requested parallelism
			break
		}
		fresh := s.claimed == 0 || merged
		if fresh {
			s.claimed++
			if s.cfg.KeepSweep {
				s.evals = append(s.evals, Candidate{})
			}
		}
		s.steps++
		if s.cfg.KeepSweep {
			s.entries = append(s.entries, Candidate{Tmll: tmll, Supernodes: s.contractor.Len()})
			s.shares = append(s.shares, s.claimed-1)
		}
		if fresh {
			return s.claimed - 1, tmll, s.contractor.Snapshot(), true
		}
	}
	return 0, 0, graph.Snapshot{}, false
}

// fold records claimed candidate idx's evaluation, or its error.
func (s *sweep) fold(idx int, cand *Mapping, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		if s.err == nil || idx < s.errIdx {
			s.err, s.errIdx = err, idx
		}
		return
	}
	if s.cfg.KeepSweep {
		s.evals[idx] = Candidate{MLL: cand.MLL, E: cand.E, Es: cand.Es, Ec: cand.Ec}
	}
	if s.best == nil || cand.E > s.best.E || cand.E == s.best.E && idx < s.bestIdx {
		s.best, s.bestIdx = cand, idx
	}
}

// finishMapping fills in MLL, cut, load estimates and the E metric for a
// chosen partition. g may be nil (RANDOM), in which case loads are node
// counts and the cut is not reported. BuildGraph gives every link one edge
// with its latency, so with a graph the MLL is the cut's minimum latency;
// without one it comes from the links.
func finishMapping(net *model.Network, g *graph.Graph, m *Mapping, cfg Config) {
	m.EstLoad = make([]int64, cfg.Engines)
	minLat := int64(-1)
	if g != nil {
		stats := g.EvaluatePartition(m.Part, cfg.Engines)
		minLat = stats.MinCutLatency
		m.EdgeCut = stats.EdgeCut
		copy(m.EstLoad, stats.PartWeight)
	} else {
		for i := range net.Links {
			l := &net.Links[i]
			if m.Part[l.A] != m.Part[l.B] && (minLat < 0 || l.Latency < minLat) {
				minLat = l.Latency
			}
		}
		for i := range net.Nodes {
			m.EstLoad[m.Part[i]]++
		}
	}
	if minLat < 0 {
		m.MLL = MaxMLL
	} else {
		m.MLL = des.Time(minLat)
	}
	syncCost := des.Time(cfg.Sync.SyncCost(cfg.Engines))
	m.Es = esFactor(m.MLL, syncCost)
	m.Ec = ecFactor(m.EstLoad)
	m.E = m.Es * m.Ec
}

// esFactor is Es = (MLL − C_N)/MLL, clamped at 0 when synchronization
// swamps the window.
func esFactor(mll, syncCost des.Time) float64 {
	if mll <= syncCost || mll <= 0 {
		return 0
	}
	return float64(mll-syncCost) / float64(mll)
}

// ecFactor is Ec = C_avg/C_max over estimated per-engine loads.
func ecFactor(loads []int64) float64 {
	var total, max int64
	for _, l := range loads {
		total += l
		if l > max {
			max = l
		}
	}
	if max == 0 {
		return 1
	}
	avg := float64(total) / float64(len(loads))
	return avg / float64(max)
}
