package pdes

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// spinBudget is how long a window-barrier waiter spins before it parks.
// Measured on `par-windows` (2 engines on a 2-vCPU Xeon, ≈ 37 µs of wall
// time per window, 60 000 crossings per op): parking every waiter costs each
// crossing an OS-thread wake-up, and the op took 1.01–1.15 s; a yielding
// spin of 100–500 µs took it to 0.64–0.87 s, while a spin that never yields
// was slower than parking (1.35–1.51 s). 100 µs covers the waits of a
// balanced window many times over and bounds the CPU a stalled engine burns.
const spinBudget = 100 * time.Microsecond

// spinYield is how many polls of the generation a spinning waiter makes
// between yields of its processor (and checks of the budget and the gate).
const spinYield = 256

// liveEngines counts the engines of every Sim of this process whose Run is
// in progress. A waiter spins only while they fit the processors: an engine
// that spins while another is runnable but has no processor delays the very
// engine it waits for. (Two concurrent 2-engine runs on 2 vCPUs were 4–28 %
// slower spinning than parking.)
var liveEngines atomic.Int64

// barrier is the reusable N-party barrier of the window loop. A waiter spins
// on the generation counter, yielding its processor every spinYield polls,
// and parks on the condition variable once its spin budget runs out or the
// live engines outnumber the processors. A spin budget of 0 parks at once.
type barrier struct {
	n       int32
	spin    time.Duration
	procs   int64 // GOMAXPROCS when the barrier was made
	arrived atomic.Int32
	gen     atomic.Uint32

	mu       sync.Mutex
	cond     sync.Cond
	sleepers int // parked waiters, guarded by mu
}

// newBarrier returns a barrier for n parties whose waiters spin for up to
// spin before they park. n must be ≥ 1.
func newBarrier(n int, spin time.Duration) *barrier {
	if n < 1 {
		panic(fmt.Sprintf("pdes: barrier of %d parties", n))
	}
	b := &barrier{n: int32(n), spin: spin, procs: int64(runtime.GOMAXPROCS(0))}
	b.cond.L = &b.mu
	return b
}

// Await blocks until all n parties have called Await, then releases them
// all. The barrier is reusable: the next n calls form the next round.
// Everything a party wrote before its Await is visible to every party after
// it returns.
func (b *barrier) Await() {
	// The generation cannot move before this party arrives, so it is read
	// first: the last arrival may bump it the moment the count is reached.
	g := b.gen.Load()
	if b.arrived.Add(1) == b.n {
		b.arrived.Store(0)
		b.gen.Add(1)
		b.mu.Lock()
		if b.sleepers > 0 {
			b.cond.Broadcast()
		}
		b.mu.Unlock()
		return
	}
	if b.spun(g) {
		return
	}
	b.mu.Lock()
	b.sleepers++
	for b.gen.Load() == g {
		b.cond.Wait()
	}
	b.sleepers--
	b.mu.Unlock()
}

// spun spins until the generation moves past g, and reports whether it did
// before the budget ran out or the gate closed.
func (b *barrier) spun(g uint32) bool {
	if b.spin <= 0 || liveEngines.Load() > b.procs {
		return false
	}
	start := time.Now()
	for i := 1; b.gen.Load() == g; i++ {
		if i%spinYield == 0 {
			if time.Since(start) > b.spin || liveEngines.Load() > b.procs {
				return false
			}
			runtime.Gosched()
		}
	}
	return true
}
