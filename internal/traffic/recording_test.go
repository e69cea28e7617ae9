package traffic

import (
	"math"
	"math/rand"
	"testing"
)

// TestReplayEqualsSeededStream is the exactness oracle for replayed
// streams: a client's stream replayed from a Recording equals
// rand.New(rand.NewSource(seed + ci·104729)) value for value, through the
// recorded prefix and on past it, where the replay seeds the source and
// skips what the prefix gave. The draws interleave the workload's three
// kinds, and seed 0 is the one math/rand maps to another (89482311).
func TestReplayEqualsSeededStream(t *testing.T) {
	seeds := []int64{1, 7, 0, -5, 1 << 40, math.MaxInt64}
	clients := []int{0, 1, 799}
	for _, seed := range seeds {
		rec := Record(seed, 800)
		replayed := rec.streams(seed, 800)
		for _, ci := range clients {
			want := rand.New(rand.NewSource(seed + int64(ci)*104729))
			got := replayed[ci]
			// Each round takes at least one output per draw, so 3× the
			// prefix in rounds runs well past the recorded outputs.
			for i := 0; i < 3*recordedDraws; i++ {
				if g, w := got.Float64(), want.Float64(); g != w {
					t.Fatalf("seed %d client %d round %d: Float64 %v, want %v", seed, ci, i, g, w)
				}
				if g, w := got.Intn(190), want.Intn(190); g != w {
					t.Fatalf("seed %d client %d round %d: Intn %d, want %d", seed, ci, i, g, w)
				}
				if g, w := got.ExpFloat64(), want.ExpFloat64(); g != w {
					t.Fatalf("seed %d client %d round %d: ExpFloat64 %v, want %v", seed, ci, i, g, w)
				}
			}
		}
	}
}

// TestReplayFallsBackOffTheRecording: a stream the recording does not
// hold — another seed, a client beyond the recorded ones, or a recording
// of none — is the seeded stream from its first draw.
func TestReplayFallsBackOffTheRecording(t *testing.T) {
	rec := Record(7, 2)
	for _, c := range []struct {
		name   string
		rec    *Recording
		seed   int64
		client int
	}{
		{"other seed", rec, 8, 0},
		{"client beyond", rec, 7, 3},
		{"none recorded", Record(7, 0), 7, 1},
	} {
		got := c.rec.streams(c.seed, c.client+1)[c.client]
		want := rand.New(rand.NewSource(c.seed + int64(c.client)*104729))
		for i := 0; i < 2*recordedDraws; i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("%s: draw %d = %d, want %d", c.name, i, g, w)
			}
		}
	}
}
