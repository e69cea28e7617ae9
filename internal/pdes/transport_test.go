package pdes

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"massf/internal/des"
	"massf/internal/telemetry"
	"massf/internal/wire"
)

// xModel is a replicated-setup test workload: every worker builds the full
// model; counters are written only by the owning engine, so worker partials
// merge by sum.
type xModel struct {
	sim    *Sim
	n      int
	window des.Time
	counts []uint64
	sums   []uint64
}

type xEvent struct {
	m   *xModel
	eng int
	val uint64
	ttl int
}

func (ev *xEvent) OnEvent(now des.Time) {
	m := ev.m
	m.counts[ev.eng]++
	m.sums[ev.eng] += ev.val
	if ev.ttl <= 0 {
		return
	}
	e := m.sim.Engine(ev.eng)
	d1 := (ev.eng + 1) % m.n
	d2 := (ev.eng + 3) % m.n
	e.ScheduleRemoteEvent(d1, now+m.window, &xEvent{m: m, eng: d1, val: ev.val*3 + 1, ttl: ev.ttl - 1})
	if d2 != d1 {
		e.ScheduleRemoteEvent(d2, now+m.window+m.window/2, &xEvent{m: m, eng: d2, val: ev.val + 7, ttl: ev.ttl - 1})
	}
}

type xCodec struct{ m *xModel }

func (c xCodec) Encode(eh des.EventHandler) (uint16, []byte, error) {
	ev, ok := eh.(*xEvent)
	if !ok {
		return 0, nil, fmt.Errorf("unknown handler %T", eh)
	}
	var b wire.Buffer
	b.I32(int32(ev.eng))
	b.U64(ev.val)
	b.I32(int32(ev.ttl))
	return 1, b.B, nil
}

func (c xCodec) Decode(dst int, kind uint16, payload []byte) (des.EventHandler, error) {
	if kind != 1 {
		return nil, fmt.Errorf("unknown kind %d", kind)
	}
	r := wire.NewReader(payload)
	ev := &xEvent{m: c.m, eng: int(r.I32()), val: r.U64(), ttl: int(r.I32())}
	return ev, r.Err()
}

func buildX(t *testing.T, cfg Config) *xModel {
	t.Helper()
	m := &xModel{n: cfg.Engines, window: cfg.Window,
		counts: make([]uint64, cfg.Engines), sums: make([]uint64, cfg.Engines)}
	if cfg.Transport != nil {
		cfg.Codec = xCodec{m: m}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.sim = s
	// Replicated setup: every engine gets its seed events regardless of the
	// hosted range.
	for i := 0; i < cfg.Engines; i++ {
		ev := &xEvent{m: m, eng: i, val: uint64(i)*13 + 1, ttl: 12}
		s.Engine(i).ScheduleEvent(des.Time(i+1)*cfg.Window/2, ev)
	}
	return m
}

// memHub is an in-memory mesh for k workers sharing one process: it
// performs exactly the folding and routing the dist workers perform over
// TCP — global stop OR, global next-event min, star-topology event routing
// — and decides nothing.
type memHub struct {
	k     int
	first []int // first engine per worker
	last  []int // one past last engine per worker
	ch    chan memDone
	quit  chan struct{} // closed once every worker's run is over
	// fault, when set, is applied to every worker's reply from the window
	// starting at errAt on: it fails the exchange or rewrites the reply.
	errAt des.Time
	fault func(h *memHub, worker int, g *WindowGo) error
}

type memDone struct {
	worker int
	d      WindowDone
	reply  chan memReply
}

type memReply struct {
	g   WindowGo
	err error
}

type memTransport struct {
	hub    *memHub
	worker int
}

func (t *memTransport) Exchange(d WindowDone) (WindowGo, error) {
	reply := make(chan memReply, 1)
	t.hub.ch <- memDone{worker: t.worker, d: d, reply: reply}
	r := <-reply
	return r.g, r.err
}

func (h *memHub) serve() {
	pending := make([]memDone, 0, h.k)
	for {
		pending = pending[:0]
		for len(pending) < h.k {
			select {
			case d := <-h.ch:
				pending = append(pending, d)
			case <-h.quit:
				return
			}
		}
		start, end := pending[0].d.Start, pending[0].d.End
		stop := false
		next := des.EndOfTime
		outs := make([][]wire.Event, h.k)
		for _, p := range pending {
			if p.d.Start != start || p.d.End != end {
				panic("workers disagree on window")
			}
			stop = stop || p.d.Stop
			next = min(next, p.d.LocalNext)
			for _, ev := range p.d.Events {
				routed := false
				for j := 0; j < h.k; j++ {
					if int(ev.Dst) >= h.first[j] && int(ev.Dst) < h.last[j] {
						outs[j] = append(outs[j], ev)
						routed = true
						break
					}
				}
				if !routed {
					panic("event with unroutable destination")
				}
			}
		}
		faulty := h.fault != nil && start >= h.errAt
		for _, p := range pending {
			r := memReply{g: WindowGo{Next: next, Stop: stop, Events: outs[p.worker]}}
			if faulty {
				r.err = h.fault(h, p.worker, &r.g)
			}
			p.reply <- r
		}
	}
}

// runDistX runs base split over k memTransport workers joined by hub, of
// which the caller sets only errAt and fault; tel, when non-nil, is attached
// to worker 0.
func runDistX(t *testing.T, base Config, k int, hub *memHub, tel *telemetry.SimTelemetry) ([]Stats, []*xModel) {
	t.Helper()
	per := base.Engines / k
	hub.k = k
	hub.ch, hub.quit = make(chan memDone, k), make(chan struct{})
	for j := 0; j < k; j++ {
		first := j * per
		last := first + per
		if j == k-1 {
			last = base.Engines
		}
		hub.first = append(hub.first, first)
		hub.last = append(hub.last, last)
	}
	go hub.serve()
	stats := make([]Stats, k)
	models := make([]*xModel, k)
	var wg sync.WaitGroup
	for j := 0; j < k; j++ {
		j := j
		cfg := base
		cfg.Transport = &memTransport{hub: hub, worker: j}
		cfg.FirstEngine = hub.first[j]
		cfg.HostedEngines = hub.last[j] - hub.first[j]
		if j == 0 {
			cfg.Telemetry = tel
		}
		m := buildX(t, cfg)
		models[j] = m
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats[j] = m.sim.Run()
		}()
	}
	wg.Wait()
	close(hub.quit)
	return stats, models
}

// deterministic is the part of Stats that depends only on the simulation,
// not on the host: everything but WallTime.
func deterministic(st Stats) Stats {
	st.WallTime = 0
	return st
}

func TestTransportMatchesInProcess(t *testing.T) {
	base := Config{Engines: 8, Window: des.Millisecond, End: 60 * des.Millisecond}

	ref := buildX(t, base)
	refStats := ref.sim.Run()
	if refStats.TotalEvents == 0 || refStats.RemoteEvents == 0 {
		t.Fatalf("degenerate reference run: %+v", refStats)
	}

	for _, k := range []int{1, 2, 3, 4, 8} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			var tel *telemetry.SimTelemetry
			if k == 2 {
				tel = telemetry.New(base.Engines/k, 128)
			}
			stats, models := runDistX(t, base, k, &memHub{}, tel)
			counts := make([]uint64, base.Engines)
			sums := make([]uint64, base.Engines)
			var totalEvents, remote uint64
			engineEvents := make([]uint64, base.Engines)
			for j := 0; j < k; j++ {
				if stats[j].Err != nil {
					t.Fatalf("worker %d: %v", j, stats[j].Err)
				}
				if stats[j].Windows != refStats.Windows {
					t.Errorf("worker %d executed %d windows, reference %d", j, stats[j].Windows, refStats.Windows)
				}
				totalEvents += stats[j].TotalEvents
				remote += stats[j].RemoteEvents
				for i := 0; i < base.Engines; i++ {
					counts[i] += models[j].counts[i]
					sums[i] += models[j].sums[i]
					engineEvents[i] += stats[j].EngineEvents[i]
				}
			}
			if totalEvents != refStats.TotalEvents {
				t.Errorf("total events %d, reference %d", totalEvents, refStats.TotalEvents)
			}
			if remote != refStats.RemoteEvents {
				t.Errorf("remote sends %d, reference %d", remote, refStats.RemoteEvents)
			}
			for i := 0; i < base.Engines; i++ {
				if counts[i] != ref.counts[i] || sums[i] != ref.sums[i] {
					t.Errorf("engine %d: counts/sums (%d,%d), reference (%d,%d)",
						i, counts[i], sums[i], ref.counts[i], ref.sums[i])
				}
				if engineEvents[i] != refStats.EngineEvents[i] {
					t.Errorf("engine %d: %d kernel events, reference %d", i, engineEvents[i], refStats.EngineEvents[i])
				}
			}
			if k == 1 {
				// One worker hosting every engine is the in-process run with
				// the decision taken through the transport: the same loop,
				// so the same Stats — windows, per-engine events and queue
				// high-water marks, load series, modeled time.
				if got, want := deterministic(stats[0]), deterministic(refStats); !reflect.DeepEqual(got, want) {
					t.Errorf("stats through the transport:\n%+v\nin-process:\n%+v", got, want)
				}
			}
			if tel != nil {
				// A worker handed a SimTelemetry gets the window records an
				// in-process run gets, over its hosted engines.
				recs := tel.Windows.Snapshot()
				if len(recs) != stats[0].Windows {
					t.Fatalf("worker 0 ring has %d records, stats saw %d windows", len(recs), stats[0].Windows)
				}
				var evSum uint64
				for _, r := range recs {
					if len(r.Events) != base.Engines/k || len(r.ExchangeNS) != base.Engines/k {
						t.Fatalf("record not over the hosted engines: %+v", r)
					}
					for _, e := range r.Events {
						evSum += e
					}
				}
				if evSum != stats[0].TotalEvents {
					t.Errorf("ring events %d, worker 0 stats %d", evSum, stats[0].TotalEvents)
				}
				if !ringClosed(tel.Windows) {
					t.Error("worker 0 window ring not closed at end of run")
				}
			}
		})
	}
}

// TestTransportExchangeErrorAborts: a failed exchange, and a reply the
// window loop cannot act on, both end every worker's run with Stats.Err —
// the reply is input from outside the process, never grounds for a panic.
func TestTransportExchangeErrorAborts(t *testing.T) {
	base := Config{Engines: 4, Window: des.Millisecond, End: 60 * des.Millisecond}
	errInjected := errors.New("injected exchange failure")
	for _, tc := range []struct {
		name  string
		fault func(h *memHub, worker int, g *WindowGo) error
		want  error
	}{
		{"exchange error", func(*memHub, int, *WindowGo) error { return errInjected }, errInjected},
		{"event for a non-hosted engine", func(h *memHub, worker int, g *WindowGo) error {
			g.Events = append(g.Events, wire.Event{Dst: int32(h.first[(worker+1)%h.k]), Kind: 1})
			return nil
		}, ErrMisroutedEvent},
		{"event for no engine", func(_ *memHub, _ int, g *WindowGo) error {
			g.Events = append(g.Events, wire.Event{Dst: -1, Kind: 1})
			return nil
		}, ErrMisroutedEvent},
		{"undecodable event", func(h *memHub, worker int, g *WindowGo) error {
			g.Events = append(g.Events, wire.Event{At: int64(des.Second), Dst: int32(h.first[worker]), Kind: 2})
			return nil
		}, ErrUndecodableEvent},
		{"event before the window end", func(h *memHub, worker int, g *WindowGo) error {
			_, payload, err := xCodec{}.Encode(&xEvent{eng: h.first[worker], val: 1})
			g.Events = append(g.Events, wire.Event{At: 0, Dst: int32(h.first[worker]), Kind: 1, Payload: payload})
			return err
		}, ErrEventInPast},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stats, _ := runDistX(t, base, 2, &memHub{errAt: 5 * des.Millisecond, fault: tc.fault}, nil)
			for j, st := range stats {
				if !errors.Is(st.Err, tc.want) {
					t.Errorf("worker %d: Stats.Err = %v, want %v (windows=%d)", j, st.Err, tc.want, st.Windows)
				}
			}
			assertNoLiveEngines(t)
		})
	}
}

// A reply whose Next lies past the events this worker holds cannot
// fast-forward over them: with one worker, whose events are all there is,
// the run is still the in-process one.
func TestTransportReplyCannotSkipHeldEvents(t *testing.T) {
	base := Config{Engines: 4, Window: des.Millisecond, End: 60 * des.Millisecond}
	ref := buildX(t, base)
	want := ref.sim.Run()
	got, _ := runDistX(t, base, 1, &memHub{errAt: 5 * des.Millisecond, fault: func(_ *memHub, _ int, g *WindowGo) error {
		g.Next = des.EndOfTime
		return nil
	}}, nil)
	if g, w := deterministic(got[0]), deterministic(want); !reflect.DeepEqual(g, w) {
		t.Errorf("stats with an inflated Next:\n%+v\nin-process:\n%+v", g, w)
	}
}

func TestTransportClosureEventPanics(t *testing.T) {
	cfg := Config{Engines: 4, Window: des.Millisecond, End: 4 * des.Millisecond,
		Transport: &memTransport{}, FirstEngine: 0, HostedEngines: 2, Codec: xCodec{}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := s.Engine(0)
	e.ScheduleEvent(0, des.Handler(func(now des.Time) {
		defer func() {
			if recover() == nil {
				t.Error("closure event across workers did not panic")
			}
		}()
		e.ScheduleRemoteEvent(3, now+2*des.Millisecond, des.Handler(func(des.Time) {}))
	}))
	// Run only the kernel of engine 0 far enough to fire the probe; we never
	// start the barrier loop, so no transport traffic happens.
	e.k.RunUntil(des.Millisecond)
}

func TestTransportConfigValidation(t *testing.T) {
	base := Config{Engines: 4, Window: des.Millisecond, End: des.Millisecond,
		Transport: &memTransport{}}
	bad := base
	bad.FirstEngine = 3
	bad.HostedEngines = 2
	if _, err := New(bad); err == nil {
		t.Error("out-of-range hosted window accepted")
	}
	noCodec := base
	noCodec.HostedEngines = 2
	if _, err := New(noCodec); err == nil {
		t.Error("partial hosted range without codec accepted")
	}
}
