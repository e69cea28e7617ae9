package experiments

import (
	"context"
	"fmt"
	"strings"

	"massf/internal/core"
	"massf/internal/dml"
	"massf/internal/mabrite"
	"massf/internal/model"
	"massf/internal/profile"
	"massf/internal/runspec"
	"massf/internal/topology"
)

// The launch path. Every surface that turns a description into a running
// simulation — cmd/massf, the massfd daemon (internal/runctl), the
// examples, and the paper's figures (cmd/experiments, through Evaluate) —
// goes through the same steps, in this order:
//
//	sc.Normalize(); sc.Validate()
//	net, multi := sc.Network()        topology source → network: DML parsed, or generated from the seed
//	st := sc.Build(net, multi, x)     routing + host roles; immutable, so cacheable and shareable
//	prof := sc.TrafficProfile(ctx, st)  supplied, or one cancellable profiling pass (PROF approaches only)
//	m := sc.Map(st, prof)             the load-balance mapping; pure, so cacheable when prof is nil
//	p := sc.Prepare(st, m, src, x)    the built simulation, not yet started
//	out := p.Run(ctx)                 run to the horizon or to cancellation
//
// A caller interposes between steps (a cache around Network/Build/Map,
// publishing p's live surfaces before Run); it does not re-implement one.
// The conformance oracle (internal/simcheck) takes the same steps with its
// own Traffic src (nil: background HTTP) and Exec x (zero: in process).

// FlatSpec asks for a generated single-AS power-law topology.
type FlatSpec struct {
	Routers int `json:"routers"`
	Hosts   int `json:"hosts"`
}

// MultiASSpec asks for a generated multi-AS Internet-like topology.
type MultiASSpec struct {
	ASes         int `json:"ases"`
	RoutersPerAS int `json:"routers_per_as"`
	Hosts        int `json:"hosts"`
}

// Scenario is the one description of a run: where the network comes from,
// how it is mapped, what traffic it carries, and the run-level knobs.
// Exactly one of DML, Flat or MultiAS selects the network; everything else
// has a default. It is also the daemon's submission wire format
// (runctl.Spec), so the JSON tags are API.
type Scenario struct {
	// Name is an optional human label echoed back in listings.
	Name string `json:"name,omitempty"`

	// DML is an inline DML network description.
	DML string `json:"dml,omitempty"`
	// Flat generates a single-AS topology instead.
	Flat *FlatSpec `json:"flat,omitempty"`
	// MultiAS generates a multi-AS topology instead.
	MultiAS *MultiASSpec `json:"multias,omitempty"`

	// Approach is the mapping approach (RANDOM, TOP, TOP2, PLACE, PROF,
	// PROF2, HTOP, HPROF). Default HTOP. Profile-based approaches run a
	// sequential profiling pass first, doubling the run's cost, unless
	// Profile supplies the measurements.
	Approach string `json:"approach,omitempty"`
	// RunSpec carries the run-level knobs — engines, seconds, seed,
	// realtime, event_cost_us, … — embedded so the wire
	// format stays flat and defaults and range checks live in one place
	// (runspec).
	runspec.RunSpec
	// App selects the foreground workload: scalapack, gridnpb or none
	// (background HTTP only). Default none.
	App string `json:"app,omitempty"`
	// Clients/Servers size the background HTTP population (0 selects the
	// default: 80% / 20% of the hosts not claimed by the application;
	// negative sizes are rejected).
	Clients int `json:"clients,omitempty"`
	Servers int `json:"servers,omitempty"`
	// Profile is an optional measured traffic profile (the massf-profile
	// text format, as served by GET /api/v1/runs/{id}/profile or written by
	// massf -profile-out). When set, profile-based approaches map from it
	// directly instead of running a sequential profiling pass first — the
	// paper's measured-feedback loop.
	Profile string `json:"profile,omitempty"`
	// Ingest exposes the run to the daemon's live agent ingest plane
	// (massfd -ingest): outside processes attach over the framed TCP
	// protocol under this run's id and inject traffic at pump epochs.
	// Ignored by batch surfaces and by a daemon without an ingest listener.
	Ingest bool `json:"ingest,omitempty"`
}

// Normalize applies defaults in place; the shared run-level defaults come
// from runspec.
func (s *Scenario) Normalize() {
	s.RunSpec.Normalize()
	if s.Approach == "" {
		s.Approach = "HTOP"
	}
	if s.App == "" {
		s.App = "none"
	}
}

// Validate rejects malformed scenarios before any work starts.
func (s *Scenario) Validate() error {
	sources := 0
	if s.DML != "" {
		sources++
	}
	if s.Flat != nil {
		sources++
	}
	if s.MultiAS != nil {
		sources++
	}
	if sources != 1 {
		return fmt.Errorf("experiments: scenario needs exactly one of dml, flat, multias (got %d)", sources)
	}
	a, err := core.ParseApproach(s.Approach)
	if err != nil {
		return err
	}
	w, err := ParseWorkload(s.App)
	if err != nil {
		return err
	}
	if a == core.PLACE && w == HTTPOnly {
		return fmt.Errorf("experiments: approach PLACE places the application's hosts; app %q runs none", s.App)
	}
	if err := s.RunSpec.Validate(); err != nil {
		return err
	}
	if s.Clients < 0 {
		return fmt.Errorf("experiments: clients must be ≥ 0 (0 = default split), got %d", s.Clients)
	}
	if s.Servers < 0 {
		return fmt.Errorf("experiments: servers must be ≥ 0 (0 = default split), got %d", s.Servers)
	}
	if s.Profile != "" {
		if _, err := profile.Read(strings.NewReader(s.Profile)); err != nil {
			return fmt.Errorf("experiments: bad profile: %w", err)
		}
	}
	return nil
}

// ParseWorkload resolves a foreground application name (case-insensitive).
func ParseWorkload(name string) (Workload, error) {
	switch strings.ToLower(name) {
	case "scalapack":
		return ScaLapack, nil
	case "gridnpb":
		return GridNPB, nil
	case "none", "http-only", "http":
		return HTTPOnly, nil
	}
	return 0, fmt.Errorf("experiments: unknown app %q", name)
}

// Network materializes the scenario's topology source. multi reports a
// multi-AS network. DML is parsed; a generator runs from the scenario's
// seed, so every call yields the same network.
func (s *Scenario) Network() (net *model.Network, multi bool, err error) {
	switch {
	case s.DML != "":
		net, err := dml.ReadNetwork(strings.NewReader(s.DML))
		if err != nil {
			return nil, false, err
		}
		return net, len(net.ASes) > 1, nil
	case s.Flat != nil:
		net, err = topology.GenerateFlat(topology.FlatOptions{
			Routers: s.Flat.Routers, Hosts: s.Flat.Hosts, Seed: s.Seed,
		})
		return net, false, err
	default:
		net, err = mabrite.Generate(mabrite.Options{
			ASes: s.MultiAS.ASes, RoutersPerAS: s.MultiAS.RoutersPerAS,
			Hosts: s.MultiAS.Hosts, Seed: s.Seed,
		})
		return net, true, err
	}
}

// AppHosts is the number of hosts the scenario's foreground application
// claims: the paper's seven, or one placeholder when only background
// traffic runs.
func (s *Scenario) AppHosts() int {
	if w, _ := ParseWorkload(s.App); w == HTTPOnly {
		return 1
	}
	return 7
}

// Build constructs the scenario's testbed on net: routing, and the host
// roles — the application hosts spread over the host list, the rest split
// 80/20 into HTTP clients and servers unless the scenario sizes them (a
// size beyond the free hosts shrinks both proportionally). The
// result depends only on net, Seed, App, Clients and Servers and is never
// written after Build returns, so one Setup may serve any number of
// concurrent runs that agree on those. Of x only Slice is read: a
// distributed worker's Setup keeps routing state for its owned nodes alone.
func (s *Scenario) Build(net *model.Network, multi bool, x Exec) (*Setup, error) {
	appHosts := s.AppHosts()
	free := net.NumHosts() - appHosts
	nc, ns := s.Clients, s.Servers
	if nc <= 0 {
		nc = free * 4 / 5
	}
	if ns <= 0 {
		ns = max(free-nc, 0)
	}
	return newSetup(net, Scale{
		Name: "scenario", Hosts: net.NumHosts(),
		Clients: nc, Servers: ns, AppHosts: appHosts,
		Engines: s.Engines, Horizon: s.Horizon(), EventCost: s.EventCost(),
		Seed: s.Seed,
	}, multi, x.Slice)
}

// bind returns this run's view of a possibly shared Setup: the per-run
// knobs (engines, horizon, event cost) overlaid on a shallow copy.
func (s *Scenario) bind(st *Setup) *Setup {
	run := *st
	run.Scale.Engines = s.Engines
	run.Scale.Horizon = s.Horizon()
	run.Scale.EventCost = s.EventCost()
	return &run
}

// TrafficProfile resolves the profile the scenario's approach maps from:
// nil for approaches that need none; the supplied Profile, checked against
// the network's shape; otherwise the measurements of one sequential
// profiling pass, which stops at a barrier (returning ctx's error) when
// ctx is cancelled.
func (s *Scenario) TrafficProfile(ctx context.Context, st *Setup) (*profile.Profile, error) {
	a, err := core.ParseApproach(s.Approach)
	if err != nil || !a.ProfileBased() {
		return nil, err
	}
	if s.Profile == "" {
		w, err := ParseWorkload(s.App)
		if err != nil {
			return nil, err
		}
		return s.bind(st).profilingPass(ctx, w)
	}
	p, err := profile.Read(strings.NewReader(s.Profile))
	if err != nil {
		return nil, err
	}
	if len(p.NodeEvents) != len(st.Net.Nodes) || len(p.LinkBits) != len(st.Net.Links) {
		return nil, fmt.Errorf("experiments: profile shape %d nodes/%d links does not match network %d/%d",
			len(p.NodeEvents), len(p.LinkBits), len(st.Net.Nodes), len(st.Net.Links))
	}
	return p, nil
}

// Map computes the scenario's mapping of st's network onto its engines.
// With a nil profile the result depends only on (st, Approach, Engines).
func (s *Scenario) Map(st *Setup, prof *profile.Profile) (*core.Mapping, error) {
	a, err := core.ParseApproach(s.Approach)
	if err != nil {
		return nil, err
	}
	return core.Map(st.Net, a, s.mapConfig(st), prof)
}

// mapConfig is the partitioner configuration of the scenario's runs on st.
func (s *Scenario) mapConfig(st *Setup) core.Config {
	return core.Config{Engines: s.Engines, Sync: st.Sync, Seed: st.Scale.Seed, AppHosts: st.AppHosts}
}

// Prepare builds the scenario's simulation under mapping m, carrying src
// beside the application (nil: the background HTTP) and executing as x
// says, and hands it back before it starts.
func (s *Scenario) Prepare(st *Setup, m *core.Mapping, src Traffic, x Exec) (*Prepared, error) {
	w, err := ParseWorkload(s.App)
	if err != nil {
		return nil, err
	}
	run := s.bind(st)
	if x.End > 0 {
		run.Scale.Horizon = x.End
	}
	return run.prepare(m, w, s.RunSpec, src, x)
}
