// Distributed conformance checking: the oracle's scenario runs split
// across worker processes joined by the dist TCP transport, with the
// merged worker partials diffed against the sequential reference AND the
// in-process parallel run of the same partition. Passing means the wire
// path changed nothing: coordinator-routed events reproduce the
// shared-memory exchange byte for byte.
package simcheck

import (
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"massf/internal/core"
	"massf/internal/des"
	"massf/internal/dist"
	"massf/internal/memstat"
	"massf/internal/model"
	"massf/internal/netmon"
	"massf/internal/pdes"
	"massf/internal/profile"
	"massf/internal/routing/interdomain"
	"massf/internal/scache"
	"massf/internal/topology"
)

// DistJobKind is the dist job kind naming the simcheck scenario runner.
const DistJobKind = "simcheck"

// distSpec is the serialized job description every worker of a distributed
// check receives: the scenario plus the run geometry the coordinator chose.
// With Slice false each worker rebuilds the full scenario (replicated
// setup); with Slice true a worker materializes only its engine range's
// share and checks its locally computed slice edge against the shipped
// boundary descriptor (Boundaries[i] for the worker covering
// SplitEngines(K, len(Boundaries))[i]). Fields are exported for JSON only.
type distSpec struct {
	Scenario Scenario
	K        int
	Part     []int32
	Window   des.Time

	Slice      bool                      `json:",omitempty"`
	Boundaries [][]topology.BoundaryLink `json:",omitempty"`
	// CacheDir, when set, points workers at a shared content-addressed
	// scenario artifact cache (internal/scache): the generated topology is
	// stored under its content key, so repeated runs — and the other
	// workers on the same machine — skip generation. Keying by content is
	// what lets concurrent runs on different scenarios share the directory.
	CacheDir string `json:",omitempty"`
}

// Runners is the runner registry a simcheck-capable worker process needs;
// the cmd layer hands it to dist.RunWorker.
func Runners() map[string]dist.Runner {
	return map[string]dist.Runner{DistJobKind: DistRunner}
}

// scenarioNet produces the scenario's network, through the artifact cache
// when the spec names one: on a hit the topology is decoded instead of
// regenerated; on a miss it is generated and published for the next run.
// Cache failures degrade to generation — the cache is an accelerator, never
// a correctness dependency.
func scenarioNet(spec *distSpec) (*model.Network, error) {
	if spec.CacheDir == "" {
		return spec.Scenario.buildNet()
	}
	c, err := scache.Open(spec.CacheDir)
	if err != nil {
		return spec.Scenario.buildNet()
	}
	key := spec.Scenario.topoKey()
	if data, ok, _ := c.Get(key); ok {
		if net, err := model.Decode(data); err == nil {
			return net, nil
		}
		// Stale or corrupt entry (e.g. codec version bump): regenerate.
	}
	net, err := spec.Scenario.buildNet()
	if err != nil {
		return nil, err
	}
	_ = c.Put(key, model.Encode(net)) // best effort; identical on both writers of a race
	return net, nil
}

// workerSlice computes and validates the slice a sliced worker
// materializes: the boundary derived locally from (partition, engine range)
// must match the descriptor the coordinator shipped, so partition drift
// between coordinator and worker binaries is caught at build time instead
// of surfacing as silent packet loss.
func workerSlice(spec *distSpec, net *model.Network, job dist.Job) (*topology.Slice, error) {
	sl, err := topology.BuildSlice(net, spec.Part, job.First, job.Hosted)
	if err != nil {
		return nil, err
	}
	if err := sl.Verify(net, spec.Part); err != nil {
		return nil, err
	}
	widx := -1
	for i, r := range SplitEngines(spec.K, len(spec.Boundaries)) {
		if r[0] == job.First && r[1] == job.Hosted {
			widx = i
			break
		}
	}
	if widx < 0 {
		return nil, fmt.Errorf("simcheck: engine range [%d,%d) matches no worker of the shipped plan",
			job.First, job.First+job.Hosted)
	}
	shipped := spec.Boundaries[widx]
	if len(shipped) != len(sl.Boundary) {
		return nil, fmt.Errorf("simcheck: worker computed %d boundary links, coordinator shipped %d",
			len(sl.Boundary), len(shipped))
	}
	for i := range shipped {
		if shipped[i] != sl.Boundary[i] {
			return nil, fmt.Errorf("simcheck: boundary link %d differs: worker %+v, coordinator %+v",
				i, sl.Boundary[i], shipped[i])
		}
	}
	return sl, nil
}

// DistRunner executes one worker's share of a distributed scenario run:
// materialize the scenario from the spec — fully replicated, or just this
// worker's slice when the spec says so — run the hosted engine range
// through the transport, and return the worker's partial Observation
// (including its build-time and memory accounting) as JSON.
func DistRunner(job dist.Job, t pdes.Transport) ([]byte, error) {
	var spec distSpec
	if err := json.Unmarshal(job.Spec, &spec); err != nil {
		return nil, fmt.Errorf("simcheck: job spec: %w", err)
	}
	buildStart := time.Now()
	net, err := scenarioNet(&spec)
	if err != nil {
		return nil, fmt.Errorf("simcheck: rebuilding scenario: %w", err)
	}
	var scope []bool
	sliceNodes := 0
	if spec.Slice {
		sl, err := workerSlice(&spec, net, job)
		if err != nil {
			return nil, err
		}
		scope = sl.Owned
		sliceNodes = sl.OwnedNodes
	}
	bundle, err := finishBundle(spec.Scenario, net, scope)
	if err != nil {
		return nil, fmt.Errorf("simcheck: rebuilding scenario: %w", err)
	}
	buildNS := time.Since(buildStart).Nanoseconds()
	obs, _, err := runOnce(bundle, spec.Scenario, spec.K, spec.Part, spec.Window, nil, nil,
		&distRun{transport: t, first: job.First, hosted: job.Hosted, slice: spec.Slice})
	if err != nil {
		return nil, err
	}
	obs.BuildNS = buildNS
	obs.SliceNodes = sliceNodes
	if r, ok := bundle.routes.(*interdomain.Router); ok {
		obs.RouteBytes = r.TableBytes()
	}
	mem := memstat.ReadStable()
	obs.HeapInuse = mem.HeapInuse
	obs.PeakRSS = mem.PeakRSS
	return json.Marshal(obs)
}

// MergeObservations folds worker partials into the global observation.
// Counters sum (a worker only counts its hosted engines); per-flow times
// take the unique non-zero report (each callback fires on exactly one
// worker — two workers reporting the same slot is itself a conformance
// failure); LastCompletion is the max.
func MergeObservations(parts []*Observation) (*Observation, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("simcheck: no worker observations to merge")
	}
	m := &Observation{
		NodeEvents: make([]uint64, len(parts[0].NodeEvents)),
		LinkBits:   make([]uint64, len(parts[0].LinkBits)),
		LinkDrops:  make([]uint64, len(parts[0].LinkDrops)),
		TCPDone:    make([]des.Time, len(parts[0].TCPDone)),
		TCPRecv:    make([]des.Time, len(parts[0].TCPRecv)),
		UDPRecv:    make([]des.Time, len(parts[0].UDPRecv)),
	}
	if parts[0].FaultDrops != nil {
		m.FaultDrops = make([]uint64, len(parts[0].FaultDrops))
	}
	if parts[0].FluidLinkBits != nil {
		m.FluidLinkBits = make([]uint64, len(parts[0].FluidLinkBits))
	}
	sumSlice := func(dst, src []uint64, field string, wi int) error {
		if len(src) != len(dst) {
			return fmt.Errorf("simcheck: worker %d reports %d %s entries, worker 0 reports %d",
				wi, len(src), field, len(dst))
		}
		for i := range src {
			dst[i] += src[i]
		}
		return nil
	}
	mergeTimes := func(dst, src []des.Time, field string, wi int) error {
		if len(src) != len(dst) {
			return fmt.Errorf("simcheck: worker %d reports %d %s entries, worker 0 reports %d",
				wi, len(src), field, len(dst))
		}
		for i, t := range src {
			if t == 0 {
				continue
			}
			if dst[i] != 0 {
				return fmt.Errorf("simcheck: %s[%d] reported by two workers (%v and %v)",
					field, i, dst[i], t)
			}
			dst[i] = t
		}
		return nil
	}
	for wi, p := range parts {
		m.TotalEvents += p.TotalEvents
		m.DeliveredBits += p.DeliveredBits
		m.Dropped += p.Dropped
		m.Retransmissions += p.Retransmissions
		m.FlowsStarted += p.FlowsStarted
		m.FlowsCompleted += p.FlowsCompleted
		m.HTTPRequests += p.HTTPRequests
		m.HTTPResponses += p.HTTPResponses
		if p.LastCompletion > m.LastCompletion {
			m.LastCompletion = p.LastCompletion
		}
		m.FluidStarted += p.FluidStarted
		m.FluidCompleted += p.FluidCompleted
		m.FluidDeliveredBits += p.FluidDeliveredBits
		if p.FluidLastCompletion > m.FluidLastCompletion {
			m.FluidLastCompletion = p.FluidLastCompletion
		}
		if err := sumSlice(m.FluidLinkBits, p.FluidLinkBits, "FluidLinkBits", wi); err != nil {
			return nil, err
		}
		if err := sumSlice(m.NodeEvents, p.NodeEvents, "NodeEvents", wi); err != nil {
			return nil, err
		}
		if err := sumSlice(m.LinkBits, p.LinkBits, "LinkBits", wi); err != nil {
			return nil, err
		}
		if err := sumSlice(m.LinkDrops, p.LinkDrops, "LinkDrops", wi); err != nil {
			return nil, err
		}
		if err := sumSlice(m.FaultDrops, p.FaultDrops, "FaultDrops", wi); err != nil {
			return nil, err
		}
		if err := mergeTimes(m.TCPDone, p.TCPDone, "TCPDone", wi); err != nil {
			return nil, err
		}
		if err := mergeTimes(m.TCPRecv, p.TCPRecv, "TCPRecv", wi); err != nil {
			return nil, err
		}
		if err := mergeTimes(m.UDPRecv, p.UDPRecv, "UDPRecv", wi); err != nil {
			return nil, err
		}
		// Each hop span is recorded on the worker hosting the executing
		// engine, so worker partials are disjoint: concatenate, then
		// restore the canonical order.
		m.PathSpans = append(m.PathSpans, p.PathSpans...)
	}
	netmon.SortSpans(m.PathSpans)
	return m, nil
}

// WorkerMem is one worker's build accounting, lifted from its partial
// Observation: setup wall time, post-run live heap, process peak RSS, and
// retained OSPF table bytes.
type WorkerMem struct {
	Name       string
	BuildNS    int64
	HeapInuse  uint64
	PeakRSS    uint64
	RouteBytes int64
	SliceNodes int
}

// DistReport is the outcome of one distributed conformance check: the same
// scenario run several ways — sequential reference, in-process on k
// engines, distributed across full-rebuild (replicated) worker processes on
// the SAME k-engine partition, and (sharded checks only) distributed again
// across slice-materializing workers — with every parallel observation
// diffed against the reference.
type DistReport struct {
	Scenario   Scenario
	K, Workers int
	Window     des.Time
	Windows    int // barrier windows the coordinator drove
	Names      []string

	Ref    *Observation // sequential N=1
	InProc *Observation // in-process k engines
	Dist   *Observation // merged replicated-worker partials
	Sliced *Observation `json:",omitempty"` // merged sliced-worker partials

	DivsInProc []Divergence // InProc vs Ref
	DivsDist   []Divergence // Dist vs Ref
	DivsSliced []Divergence `json:",omitempty"` // Sliced vs Ref

	WorkerMem []WorkerMem `json:",omitempty"` // per replicated worker
	SlicedMem []WorkerMem `json:",omitempty"` // per sliced worker
}

// Failed reports whether any parallel run diverged from the reference.
func (r *DistReport) Failed() bool {
	return len(r.DivsInProc) > 0 || len(r.DivsDist) > 0 || len(r.DivsSliced) > 0
}

// SplitEngines carves k engines into n contiguous near-equal
// [first, first+hosted) ranges, one per worker.
func SplitEngines(k, workers int) [][2]int {
	ranges := make([][2]int, workers)
	base, extra := k/workers, k%workers
	first := 0
	for i := range ranges {
		hosted := base
		if i < extra {
			hosted++
		}
		ranges[i] = [2]int{first, hosted}
		first += hosted
	}
	return ranges
}

// distPlan is the local half of a distributed check: the report skeleton
// (reference + in-process legs already run and diffed) plus everything
// needed to cut worker job specs — replicated or sliced — for the chosen
// partition.
type distPlan struct {
	rep     *DistReport
	net     *model.Network
	sc      Scenario
	k       int
	workers int
	part    []int32
	window  des.Time
}

// planDistributed runs the local legs of a distributed check — the
// sequential reference (which also feeds profile-based mapping) and the
// in-process k-engine run.
func planDistributed(sc Scenario, k, workers int) (*distPlan, error) {
	if workers < 1 || workers > k {
		return nil, fmt.Errorf("simcheck: %d workers for %d engines", workers, k)
	}
	bundle, err := buildBundle(sc)
	if err != nil {
		return nil, err
	}
	ref, refRes, err := runOnce(bundle, sc, 1, nil, core.MaxMLL, nil, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("simcheck: reference run: %w", err)
	}
	var prof *profile.Profile
	if sc.Approach.ProfileBased() {
		prof = profile.FromResult(refRes, sc.Horizon)
	}
	m, err := core.Map(bundle.net, sc.Approach, core.Config{Engines: k, Seed: sc.Seed}, prof)
	if err != nil {
		return nil, fmt.Errorf("simcheck: map k=%d: %w", k, err)
	}
	window := m.MLL
	if window > core.MaxMLL {
		window = core.MaxMLL
	}
	inProc, _, err := runOnce(bundle, sc, k, m.Part, window, nil, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("simcheck: in-process run k=%d: %w", k, err)
	}
	rep := &DistReport{
		Scenario: sc, K: k, Workers: workers, Window: window,
		Ref: ref, InProc: inProc, DivsInProc: Diff(ref, inProc),
	}
	return &distPlan{
		rep: rep, net: bundle.net, sc: sc, k: k, workers: workers,
		part: m.Part, window: window,
	}, nil
}

// runConfig cuts the worker jobs for this plan. With sliced true the spec
// carries the partition's per-worker boundary descriptors (computed once
// here, verified independently by each worker) and flags slice-local
// materialization; cacheDir, when non-empty, names the shared scenario
// artifact cache workers read through.
func (p *distPlan) runConfig(sliced bool, cacheDir string) (dist.RunConfig, error) {
	spec := distSpec{
		Scenario: p.sc, K: p.k, Part: p.part, Window: p.window,
		Slice: sliced, CacheDir: cacheDir,
	}
	ranges := SplitEngines(p.k, p.workers)
	if sliced {
		for _, r := range ranges {
			sl, err := topology.BuildSlice(p.net, p.part, r[0], r[1])
			if err != nil {
				return dist.RunConfig{}, fmt.Errorf("simcheck: slicing engines [%d,%d): %w", r[0], r[0]+r[1], err)
			}
			spec.Boundaries = append(spec.Boundaries, sl.Boundary)
		}
	}
	data, err := json.Marshal(spec)
	if err != nil {
		return dist.RunConfig{}, err
	}
	rc := dist.RunConfig{
		WindowNS:     int64(p.window),
		TotalWindows: pdes.WindowCount(p.sc.Horizon, p.window),
	}
	for _, r := range ranges {
		rc.Jobs = append(rc.Jobs, dist.Job{
			Kind: DistJobKind, First: r[0], Hosted: r[1], Spec: data,
		})
	}
	return rc, nil
}

// PlanDistributed runs the local legs of a distributed check and returns
// the report skeleton plus the dist.RunConfig whose (replicated-setup) jobs
// the workers execute.
func PlanDistributed(sc Scenario, k, workers int) (*DistReport, dist.RunConfig, error) {
	plan, err := planDistributed(sc, k, workers)
	if err != nil {
		return nil, dist.RunConfig{}, err
	}
	rc, err := plan.runConfig(false, "")
	if err != nil {
		return nil, dist.RunConfig{}, err
	}
	return plan.rep, rc, nil
}

// serveMerge drives one worker fleet over ln and merges its partials.
func serveMerge(ln net.Listener, rc dist.RunConfig, opt dist.Options) (*dist.Result, []*Observation, *Observation, error) {
	res, err := dist.Serve(ln, rc, opt)
	if err != nil {
		return nil, nil, nil, err
	}
	parts := make([]*Observation, len(res.Payloads))
	for i, p := range res.Payloads {
		parts[i] = &Observation{}
		if err := json.Unmarshal(p, parts[i]); err != nil {
			return nil, nil, nil, fmt.Errorf("simcheck: worker %d (%q) result: %w", i, res.Names[i], err)
		}
	}
	merged, err := MergeObservations(parts)
	if err != nil {
		return nil, nil, nil, err
	}
	return res, parts, merged, nil
}

// workerMem lifts each partial's build accounting into the report form.
func workerMem(parts []*Observation, names []string) []WorkerMem {
	out := make([]WorkerMem, len(parts))
	for i, p := range parts {
		name := ""
		if i < len(names) {
			name = names[i]
		}
		out[i] = WorkerMem{
			Name: name, BuildNS: p.BuildNS, HeapInuse: p.HeapInuse,
			PeakRSS: p.PeakRSS, RouteBytes: p.RouteBytes, SliceNodes: p.SliceNodes,
		}
	}
	return out
}

// ServeDistributed plans a distributed check and coordinates it over ln.
// The caller launches the worker processes (massfd -worker, or in-process
// dist.RunWorker goroutines) against ln's address; any worker failure
// comes back as a *dist.WorkerError naming the culprit.
func ServeDistributed(ln net.Listener, sc Scenario, k, workers int, opt dist.Options) (*DistReport, error) {
	rep, rc, err := PlanDistributed(sc, k, workers)
	if err != nil {
		return nil, err
	}
	res, parts, merged, err := serveMerge(ln, rc, opt)
	if err != nil {
		return nil, err
	}
	rep.Windows = res.Windows
	rep.Names = res.Names
	rep.Dist = merged
	rep.DivsDist = Diff(rep.Ref, merged)
	rep.WorkerMem = workerMem(parts, res.Names)
	return rep, nil
}

// serveFleet spawns `workers` in-process worker loops against a fresh
// loopback listener and drives rc through them.
func serveFleet(rc dist.RunConfig, workers int, opt dist.Options) (*dist.Result, []*Observation, *Observation, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, nil, err
	}
	defer ln.Close()
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = dist.RunWorker(ln.Addr().String(), fmt.Sprintf("worker-%d", i), Runners(), opt)
		}()
	}
	res, parts, merged, err := serveMerge(ln, rc, opt)
	wg.Wait()
	if err != nil {
		return nil, nil, nil, err
	}
	for i, werr := range errs {
		if werr != nil {
			return nil, nil, nil, fmt.Errorf("simcheck: worker %d: %w", i, werr)
		}
	}
	return res, parts, merged, nil
}

// CheckDistributed is the self-contained distributed conformance check:
// coordinator plus `workers` worker loops in this process, joined over
// loopback TCP — every byte still crosses the real wire protocol.
func CheckDistributed(sc Scenario, k, workers int, opt dist.Options) (*DistReport, error) {
	rep, rc, err := PlanDistributed(sc, k, workers)
	if err != nil {
		return nil, err
	}
	res, parts, merged, err := serveFleet(rc, workers, opt)
	if err != nil {
		return nil, err
	}
	rep.Windows = res.Windows
	rep.Names = res.Names
	rep.Dist = merged
	rep.DivsDist = Diff(rep.Ref, merged)
	rep.WorkerMem = workerMem(parts, res.Names)
	return rep, nil
}

// CheckSharded is the sharded-vs-replicated conformance dimension: the same
// scenario planned once, then run through TWO self-contained worker fleets
// on the identical k-engine partition — full-rebuild (replicated) workers
// first, then slice-materializing workers — with both merged observations
// diffed against the sequential reference. Passing proves a sliced worker's
// lazy, slice-local setup is byte-identical to the replicated build it
// replaces, fault churn included (the scenario's fault plane replays
// against slice-scoped routing clones). cacheDir, when non-empty, routes
// both fleets' topology builds through the shared scenario artifact cache.
func CheckSharded(sc Scenario, k, workers int, opt dist.Options, cacheDir string) (*DistReport, error) {
	plan, err := planDistributed(sc, k, workers)
	if err != nil {
		return nil, err
	}
	rep := plan.rep

	rc, err := plan.runConfig(false, cacheDir)
	if err != nil {
		return nil, err
	}
	res, parts, merged, err := serveFleet(rc, workers, opt)
	if err != nil {
		return nil, fmt.Errorf("simcheck: replicated fleet: %w", err)
	}
	rep.Windows = res.Windows
	rep.Names = res.Names
	rep.Dist = merged
	rep.DivsDist = Diff(rep.Ref, merged)
	rep.WorkerMem = workerMem(parts, res.Names)

	src, err := plan.runConfig(true, cacheDir)
	if err != nil {
		return nil, err
	}
	sres, sparts, smerged, err := serveFleet(src, workers, opt)
	if err != nil {
		return nil, fmt.Errorf("simcheck: sliced fleet: %w", err)
	}
	rep.Sliced = smerged
	rep.DivsSliced = Diff(rep.Ref, smerged)
	rep.SlicedMem = workerMem(sparts, sres.Names)
	return rep, nil
}
