package traffic

import (
	"sort"
	"testing"

	"massf/internal/des"
	"massf/internal/model"
)

// TestClientStreamsDistinct guards the seeding of clientStreams, which the
// workload tests would not notice going wrong: no two of 1 000 clients
// under one seed share any of their first outputs, and no client under
// seed s+1 repeats one of them, so a seed that ignores the client index
// or the workload seed, or that shifts the clients by one across seeds,
// fails here.
func TestClientStreamsDistinct(t *testing.T) {
	const clients, draws = 1000, 4
	for _, seed := range []int64{0, 1, 7, -3, 1 << 40} {
		seen := make(map[uint64]int, 2*clients*draws)
		for i, s := range []int64{seed, seed + 1} {
			rngs := clientStreams(s, clients)
			for ci := range rngs {
				for d := 0; d < draws; d++ {
					v := rngs[ci].Uint64()
					if prev, dup := seen[v]; dup {
						t.Fatalf("seed %d: seed %d client %d draw %d repeats output %#x of stream %d", seed, s, ci, d, v, prev)
					}
					seen[v] = i*clients + ci
				}
			}
		}
	}
}

// TestFirstRequestsRampEvenly: the clients' first requests leave no gap
// wider than 3/n of the think time, for every population size up to 300
// (47 is the service benchmark's, whose 0.5 s runs must each see one
// within 10 % of it), and each client's first request is still uniform
// over the think time across seeds.
func TestFirstRequestsRampEvenly(t *testing.T) {
	const gap = des.Second
	for seed := int64(1); seed <= 20; seed++ {
		for n := 1; n <= 300; n++ {
			cfg := HTTPConfig{Clients: make([]model.NodeID, n), MeanGap: gap, Seed: seed}
			rngs := clientStreams(seed, n)
			shift := rampShift(seed)
			at := make([]float64, n)
			for ci := range at {
				at[ci] = float64(cfg.firstRequest(ci, &rngs[ci], shift)) / float64(gap)
			}
			sort.Float64s(at)
			widest := at[0] + 1 - at[n-1]
			for i := 1; i < n; i++ {
				widest = max(widest, at[i]-at[i-1])
			}
			if widest*float64(n) > 3 {
				t.Fatalf("seed %d, %d clients: a gap of %.4f of the think time, over 3/n", seed, n, widest)
			}
		}
	}
	const seeds, bins = 4000, 10
	var hist [bins]int
	cfg := HTTPConfig{Clients: make([]model.NodeID, 47), MeanGap: gap}
	for seed := int64(0); seed < seeds; seed++ {
		cfg.Seed = seed
		rng := &clientStreams(seed, 47)[5]
		hist[int(float64(cfg.firstRequest(5, rng, rampShift(seed)))/float64(gap)*bins)]++
	}
	for b, k := range hist {
		if k < seeds/bins*3/4 || k > seeds/bins*5/4 {
			t.Errorf("client 5's first request falls in tenth %d of the think time %d times of %d, want ≈ %d", b, k, seeds, seeds/bins)
		}
	}
}
