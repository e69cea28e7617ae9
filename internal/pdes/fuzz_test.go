package pdes

import (
	"testing"

	"massf/internal/cluster"
	"massf/internal/des"
)

// FuzzExchangeOrdering decodes the fuzz input into an arbitrary pattern of
// cross-engine sends (source, destination, send window, offset into the
// delivery window) on 2–4 engines, runs the simulation with every invariant
// hook enabled, and checks conservation: each legally scheduled remote
// event is delivered exactly once, with no lookahead, parity, drain-order
// or kernel violations. Per-batch (at, src, seq) ordering is asserted by
// the hooks themselves — a global order does not hold across windows.
func FuzzExchangeOrdering(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 100, 1, 0, 2, 200, 2, 1, 2, 4, 50})
	f.Add([]byte{2, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0})
	f.Add([]byte{1, 3, 1, 6, 255, 0, 2, 5, 128, 2, 0, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		const window = des.Millisecond
		const end = 8 * des.Millisecond
		n := 2 + int(data[0])%3
		inv := &Invariants{KernelPerWindow: true}
		s, err := New(Config{
			Engines: n, Window: window, End: end,
			Sync: cluster.Fixed{CostNS: 1000}, Invariants: inv,
		})
		if err != nil {
			t.Fatal(err)
		}

		recv := make([]int, n) // each engine writes only its own slot
		sends := 0
		body := data[1:]
		for c := 0; c+4 <= len(body) && sends < 1024; c += 4 {
			src := int(body[c]) % n
			dst := int(body[c+1]) % n
			if dst == src {
				dst = (dst + 1) % n
			}
			wi := int(body[c+2]) % 7             // send window 0..6
			offset := des.Time(body[c+3]) * 3900 // < 1ms into the next window
			at := des.Time(wi+1)*window + offset // ≥ sender's window end, < end
			local := des.Time(wi)*window + offset/2
			s.Engine(src).Schedule(local, func(des.Time) {
				s.Engine(src).ScheduleRemoteEvent(dst, at, des.Handler(func(des.Time) { recv[dst]++ }))
			})
			sends++
		}

		stats := s.Run()
		if v := inv.Violations(); len(v) != 0 {
			t.Fatalf("invariant violations: %v", v)
		}
		if stats.RemoteEvents != uint64(sends) {
			t.Fatalf("RemoteEvents = %d, want %d", stats.RemoteEvents, sends)
		}
		total := 0
		for _, r := range recv {
			total += r
		}
		if total != sends {
			t.Fatalf("delivered %d remote events, want %d (per-engine %v)", total, sends, recv)
		}
	})
}
