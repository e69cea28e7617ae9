package main

import (
	"bytes"
	"net"
	"runtime"
	"time"

	"massf/internal/cluster"
	"massf/internal/des"
	"massf/internal/experiments"
	"massf/internal/pdes"
	"massf/internal/wire"
)

// Probes are micro-loops on one layer's exported functions. They run only in
// the traced pass, sized by counts taken from the workload they explain, and
// say what a layer costs in isolation next to what the workload paid for it.

// tick is a self-rescheduling kernel event: steady state at a fixed depth.
type tick struct {
	k    *des.Kernel
	step des.Time
}

func (t *tick) OnEvent(now des.Time) { t.k.ScheduleEvent(now+t.step, t) }

// probeKernel measures one schedule+step at steady state with depth events
// pending (the run's Stats.MaxPending): ns and allocations per event.
func probeKernel(depth, events int) (ns, allocs float64) {
	if depth < 1 {
		depth = 1
	}
	var k des.Kernel
	for i := 0; i < depth; i++ {
		t := &tick{k: &k, step: des.Time(depth) * des.Microsecond}
		k.ScheduleEvent(des.Time(i+1)*des.Microsecond, t)
	}
	for i := 0; i < depth; i++ { // grow the arena before timing
		k.Step(des.EndOfTime)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < events; i++ {
		k.Step(des.EndOfTime)
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(d.Nanoseconds()) / float64(events), float64(m1.Mallocs-m0.Mallocs) / float64(events)
}

var sinkLink int64

// probeNextLink measures Router.NextLink over warm (router, host) pairs.
func probeNextLink(st *experiments.Setup, seed int64, lookups int) float64 {
	cur, dst := warmPairs(st, seed, 4096)
	for i := range cur { // touch every pair once: lazily filled tables
		sinkLink += int64(st.Router.NextLink(cur[i], dst[i]))
	}
	t0 := time.Now()
	for i := 0; i < lookups; i++ {
		j := i & 4095
		sinkLink += int64(st.Router.NextLink(cur[j], dst[j]))
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(lookups)
}

// probeEmptyWindows measures a barrier window with nothing to exchange, as
// pdes's BenchmarkBarrierWindows8Engines does: engine 0 executes one no-op
// event per window so no window is fast-forwarded over.
func probeEmptyWindows(engines, windows int) float64 {
	end := des.Time(windows) * des.Millisecond
	s, err := pdes.New(pdes.Config{
		Engines: engines, Window: des.Millisecond, End: end,
		Sync: cluster.Fixed{CostNS: 1},
	})
	if err != nil {
		return 0
	}
	e := s.Engine(0)
	var beat func(now des.Time)
	beat = func(now des.Time) {
		if next := now + des.Millisecond; next < end {
			e.Schedule(next, beat)
		}
	}
	e.Schedule(0, beat)
	st := s.Run()
	if st.Windows == 0 {
		return 0
	}
	return float64(st.WallTime.Nanoseconds()) / float64(st.Windows)
}

// probeWire measures AppendEvents and ReadEvents on batches of the size and
// payload the distributed run shipped.
func probeWire(batch, payload, rounds int) (encNS, decNS float64) {
	if batch < 1 {
		batch = 1
	}
	evs := make([]wire.Event, batch)
	for i := range evs {
		evs[i] = wire.Event{
			At: int64(i) * 1000, Src: int32(i % 4), Dst: int32((i + 1) % 4), Seq: uint64(i),
			Kind: 1, Payload: bytes.Repeat([]byte{byte(i)}, payload),
		}
	}
	var buf []byte
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		buf = wire.AppendEvents(buf[:0], evs)
	}
	encNS = float64(time.Since(t0).Nanoseconds()) / float64(rounds*batch)
	n := 0
	t0 = time.Now()
	for i := 0; i < rounds; i++ {
		got, err := wire.ReadEvents(wire.NewReader(buf))
		if err != nil {
			return encNS, 0
		}
		n += len(got)
	}
	decNS = float64(time.Since(t0).Nanoseconds()) / float64(n)
	return encNS, decNS
}

// probeFrame measures WriteFrame + ReadFrame (CRC included) per KB of
// payload over a bytes.Buffer.
func probeFrame(payloadBytes, rounds int) float64 {
	payload := bytes.Repeat([]byte{0x5a}, payloadBytes)
	var buf bytes.Buffer
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		buf.Reset()
		if err := wire.WriteFrame(&buf, wire.MsgWindowDone, payload); err != nil {
			return 0
		}
		if _, _, err := wire.ReadFrame(&buf, 0); err != nil {
			return 0
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / (float64(rounds) * float64(payloadBytes) / 1024)
}

// probeLoopbackRTT measures an empty-frame ping-pong over loopback TCP: the
// floor under a distributed window, which says whether a slow window is the
// machine or the program.
func probeLoopbackRTT(rounds int) float64 {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		for {
			typ, p, err := wire.ReadFrame(c, 0)
			if err != nil || wire.WriteFrame(c, typ, p) != nil {
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0
	}
	ping := func() bool {
		if wire.WriteFrame(c, wire.MsgHeartbeat, nil) != nil {
			return false
		}
		_, _, err := wire.ReadFrame(c, 0)
		return err == nil
	}
	ok := ping() // connection warm-up
	t0 := time.Now()
	for i := 0; ok && i < rounds; i++ {
		ok = ping()
	}
	d := time.Since(t0)
	c.Close()
	<-done
	if !ok {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(rounds) / 1e3
}
