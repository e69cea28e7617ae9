package traffic

import "math/rand"

// recordedDraws is how many raw outputs of each client's stream a
// Recording holds: every client of a 0.5 s run stays within them, and
// ≈ 91 % of the clients of a 30 s run at the paper's 5 s think time.
const recordedDraws = 32

// Recording holds the first recordedDraws outputs of each HTTP client's
// math/rand stream under one seed, so that a workload built again on the
// same clients replays them instead of seeding a source per client (each
// seeding fills a 607-word table: ≈ 14 µs and 5.4 KB). It is read-only once
// Record returns, so any number of workloads, in parallel, may replay it.
type Recording struct {
	seed int64
	vals []uint64 // client ci's draws at [ci·recordedDraws, (ci+1)·recordedDraws)
}

// Record draws the first outputs of the streams of clients clients under
// seed. Record(seed, 0) records nothing: every stream then seeds its source
// at its first draw, as a stream drawn once should.
func Record(seed int64, clients int) *Recording {
	r := &Recording{seed: seed, vals: make([]uint64, clients*recordedDraws)}
	for ci := 0; ci < clients; ci++ {
		src := rand.NewSource(clientSeed(seed, ci)).(rand.Source64)
		for i := ci * recordedDraws; i < (ci+1)*recordedDraws; i++ {
			r.vals[i] = src.Uint64()
		}
	}
	return r
}

// clientSeed seeds client ci's stream under seed: the one recipe both the
// packet workload (InstallHTTP) and its fluid twin (FluidHTTP) draw from,
// so the two fidelities model the same clients.
func clientSeed(seed int64, ci int) int64 { return seed + int64(ci)*104729 }

// streams returns the n clients' streams under seed, replaying what r
// recorded when r was drawn with seed, and seeding each source afresh
// otherwise.
func (r *Recording) streams(seed int64, n int) []*rand.Rand {
	srcs := make([]replay, n)
	rngs := make([]*rand.Rand, n)
	for ci := range srcs {
		srcs[ci] = replay{seed: clientSeed(seed, ci)}
		if lo, hi := ci*recordedDraws, (ci+1)*recordedDraws; r.seed == seed && hi <= len(r.vals) {
			srcs[ci].prefix = r.vals[lo:hi:hi]
			srcs[ci].skip = recordedDraws
		}
		rngs[ci] = rand.New(&srcs[ci])
	}
	return rngs
}

// replay is a rand.Source64 that returns a recorded prefix of a stream,
// then the stream itself: past the prefix it seeds the source and discards
// the outputs the prefix already gave.
type replay struct {
	prefix []uint64 // recorded outputs not yet returned
	seed   int64
	skip   int           // outputs the fallback source discards
	src    rand.Source64 // nil until the prefix runs out
}

func (r *replay) Uint64() uint64 {
	if len(r.prefix) > 0 {
		v := r.prefix[0]
		r.prefix = r.prefix[1:]
		return v
	}
	if r.src == nil {
		r.src = rand.NewSource(r.seed).(rand.Source64)
		for i := 0; i < r.skip; i++ {
			r.src.Uint64()
		}
	}
	return r.src.Uint64()
}

// Int63 masks Uint64 as math/rand's own source does, so a replayed stream
// equals the seeded one value for value.
func (r *replay) Int63() int64 { return int64(r.Uint64() & (1<<63 - 1)) }

func (r *replay) Seed(int64) { panic("traffic: a replayed stream is not reseeded") }
