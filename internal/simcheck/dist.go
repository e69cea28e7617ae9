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
	"massf/internal/experiments"
	"massf/internal/memstat"
	"massf/internal/model"
	"massf/internal/netmon"
	"massf/internal/pdes"
	"massf/internal/topology"
)

// DistJobKind is the dist job kind naming the simcheck scenario runner.
const DistJobKind = "simcheck"

// distSpec is the serialized job description every worker of a distributed
// check receives: the scenario plus the run geometry the coordinator chose.
// A worker materializes only its engine range's share and checks its
// locally computed slice edge against the shipped boundary descriptor
// (Boundaries[i] for the worker covering
// SplitEngines(K, len(Boundaries))[i]). Fields are exported for JSON only.
type distSpec struct {
	Scenario   Scenario
	K          int
	Part       []int32
	Window     des.Time
	Boundaries [][]topology.BoundaryLink
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

// workerSlice computes and validates the slice a worker materializes: the
// boundary derived locally from (partition, engine range) must match the
// descriptor the coordinator shipped, so partition drift between
// coordinator and worker binaries is caught at build time instead of
// surfacing as silent packet loss.
func workerSlice(spec *distSpec, net *model.Network, job dist.Job) (*topology.Slice, error) {
	if len(spec.Boundaries) == 0 {
		return nil, fmt.Errorf("simcheck: job spec ships no boundary descriptors")
	}
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
// materialize this worker's slice of the scenario from the spec through
// the launch path, run the hosted engine range through the transport on
// the shipped partition, and return the worker's partial Observation
// (including its build-time and memory accounting) as JSON.
func DistRunner(job dist.Job, t pdes.Transport) ([]byte, error) {
	var spec distSpec
	if err := json.Unmarshal(job.Spec, &spec); err != nil {
		return nil, fmt.Errorf("simcheck: job spec: %w", err)
	}
	sc := spec.Scenario
	es := sc.launch(spec.K)
	buildStart := time.Now()
	net, multi, err := es.Network(spec.CacheDir)
	if err != nil {
		return nil, fmt.Errorf("simcheck: rebuilding scenario: %w", err)
	}
	sl, err := workerSlice(&spec, net, job)
	if err != nil {
		return nil, err
	}
	x := experiments.Exec{Transport: t, First: job.First, Hosted: job.Hosted, Slice: sl.Owned}
	st, err := es.Build(net, multi, x)
	if err != nil {
		return nil, fmt.Errorf("simcheck: rebuilding scenario: %w", err)
	}
	buildNS := time.Since(buildStart).Nanoseconds()
	m := &core.Mapping{Approach: sc.Approach, Part: spec.Part, MLL: spec.Window}
	obs, _, err := runOnce(st, sc, m, spec.K, x, nil)
	if err != nil {
		return nil, err
	}
	obs.BuildNS = buildNS
	obs.SliceNodes = sl.OwnedNodes
	obs.RouteBytes = st.Router.TableBytes()
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

// DistReport is the outcome of one distributed leg: the scenario's
// sequential reference and in-process k-engine run (both the plan's), and
// the same k-engine partition distributed across one fleet of
// slice-materializing workers, with every parallel observation diffed
// against the reference.
type DistReport struct {
	Scenario   Scenario
	K, Workers int
	Window     des.Time
	Windows    int // barrier windows the coordinator drove
	Names      []string

	Ref    *Observation // sequential N=1
	InProc *Observation // in-process k engines
	Dist   *Observation // merged worker partials

	DivsInProc []Divergence // InProc vs Ref
	DivsDist   []Divergence // Dist vs Ref

	WorkerMem []WorkerMem `json:",omitempty"` // per worker
}

// Failed reports whether any parallel run diverged from the reference.
func (r *DistReport) Failed() bool {
	return len(r.DivsInProc) > 0 || len(r.DivsDist) > 0
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

// planDistributed is the local half of the distributed leg: the report with
// the plan's reference and (memoized) in-process k-engine run filled in,
// and the jobs a fleet of `workers` executes on the same partition.
func (p *Plan) planDistributed(k, workers int, cacheDir string) (*DistReport, dist.RunConfig, error) {
	if workers < 1 || workers > k {
		return nil, dist.RunConfig{}, fmt.Errorf("simcheck: %d workers for %d engines", workers, k)
	}
	kr, err := p.inProc(k, false)
	if err != nil {
		return nil, dist.RunConfig{}, err
	}
	rc, err := p.jobs(k, workers, cacheDir)
	if err != nil {
		return nil, dist.RunConfig{}, err
	}
	return &DistReport{
		Scenario: p.Scenario, K: k, Workers: workers, Window: kr.Window,
		Ref: p.Ref, InProc: kr.Obs, DivsInProc: kr.Divergences,
	}, rc, nil
}

// jobs cuts the worker jobs of the (already mapped) k-engine partition.
// The spec carries the partition's per-worker boundary descriptors
// (computed once here, verified independently by each worker); cacheDir,
// when non-empty, names the shared scenario artifact cache workers read
// through.
func (p *Plan) jobs(k, workers int, cacheDir string) (dist.RunConfig, error) {
	part, window := p.ks[k].m.Part, p.ks[k].m.Window()
	spec := distSpec{Scenario: p.Scenario, K: k, Part: part, Window: window, CacheDir: cacheDir}
	ranges := SplitEngines(k, workers)
	for _, r := range ranges {
		sl, err := topology.BuildSlice(p.st.Net, part, r[0], r[1])
		if err != nil {
			return dist.RunConfig{}, fmt.Errorf("simcheck: slicing engines [%d,%d): %w", r[0], r[0]+r[1], err)
		}
		spec.Boundaries = append(spec.Boundaries, sl.Boundary)
	}
	data, err := json.Marshal(spec)
	if err != nil {
		return dist.RunConfig{}, err
	}
	rc := dist.RunConfig{
		WindowNS:     int64(window),
		TotalWindows: pdes.WindowCount(p.Scenario.Horizon, window),
	}
	for _, r := range ranges {
		rc.Jobs = append(rc.Jobs, dist.Job{
			Kind: DistJobKind, First: r[0], Hosted: r[1], Spec: data,
		})
	}
	return rc, nil
}

// PlanDistributed runs the local legs of a distributed check — build,
// sequential reference, mapping, in-process k-engine run — and returns the
// report skeleton plus the dist.RunConfig whose jobs the workers execute.
func PlanDistributed(sc Scenario, k, workers int) (*DistReport, dist.RunConfig, error) {
	p, err := NewPlan(sc)
	if err != nil {
		return nil, dist.RunConfig{}, err
	}
	return p.planDistributed(k, workers, "")
}

// serveFleet drives rc through one worker fleet, lifts each partial's build
// accounting into the report form, and merges the partials. The workers are
// whoever joins ln (massfd -worker processes, or dist.RunWorker goroutines
// the caller started); with ln nil they are one in-process worker loop per
// job on a fresh loopback listener — every byte still crosses the real wire.
func serveFleet(ln net.Listener, rc dist.RunConfig, opt dist.Options) (*dist.Result, []WorkerMem, *Observation, error) {
	var wg sync.WaitGroup
	var errs []error
	if ln == nil {
		var err error
		if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return nil, nil, nil, err
		}
		defer ln.Close()
		errs = make([]error, len(rc.Jobs))
		for i := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = dist.RunWorker(ln.Addr().String(), fmt.Sprintf("worker-%d", i), Runners(), opt)
			}()
		}
	}
	res, err := dist.Serve(ln, rc, opt)
	wg.Wait()
	if err != nil {
		return nil, nil, nil, err
	}
	for i, werr := range errs {
		if werr != nil {
			return nil, nil, nil, fmt.Errorf("simcheck: worker %d: %w", i, werr)
		}
	}
	parts := make([]*Observation, len(res.Payloads))
	mem := make([]WorkerMem, len(parts))
	for i, raw := range res.Payloads {
		p := &Observation{}
		if err := json.Unmarshal(raw, p); err != nil {
			return nil, nil, nil, fmt.Errorf("simcheck: worker %d (%q) result: %w", i, res.Names[i], err)
		}
		parts[i] = p
		mem[i] = WorkerMem{
			Name: res.Names[i], BuildNS: p.BuildNS, HeapInuse: p.HeapInuse,
			PeakRSS: p.PeakRSS, RouteBytes: p.RouteBytes, SliceNodes: p.SliceNodes,
		}
	}
	merged, err := MergeObservations(parts)
	if err != nil {
		return nil, nil, nil, err
	}
	return res, mem, merged, nil
}

// Distributed is the distributed leg, the one entry point of every fleet
// backend: the plan's k-engine partition split across `workers` workers —
// external ones joining ln, or (ln nil) loopback loops in this process —
// with the merged partials diffed against the reference. Each worker
// materializes only its engine range's share, with scoped routing, and
// passing proves the slice-local setup changed nothing against the
// sequential reference, fault churn included (the fault plane replays
// against slice-scoped routing clones). A non-empty cacheDir routes
// topology builds through the shared scenario artifact cache. A worker
// failure comes back as a *dist.WorkerError.
func (p *Plan) Distributed(ln net.Listener, k, workers int, cacheDir string, opt dist.Options) (*DistReport, error) {
	rep, rc, err := p.planDistributed(k, workers, cacheDir)
	if err != nil {
		return nil, err
	}
	res, mem, merged, err := serveFleet(ln, rc, opt)
	if err != nil {
		return nil, err
	}
	rep.Windows, rep.Names = res.Windows, res.Names
	rep.Dist, rep.DivsDist, rep.WorkerMem = merged, Diff(p.Ref, merged), mem
	return rep, nil
}
