package pdes

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// barrierModes are the two ways a waiter can wait: park at once, or spin
// for the production budget first.
var barrierModes = []struct {
	name string
	spin time.Duration
}{
	{"park", 0},
	{"spin", spinBudget},
}

// parked returns the number of waiters parked on b.
func (b *barrier) parked() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sleepers
}

// waitParked polls until want waiters are parked on b. The deadline only
// turns a hang into a failure; nothing is timed.
func waitParked(t *testing.T, b *barrier, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for b.parked() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%d waiters parked, want %d", b.parked(), want)
		}
		runtime.Gosched()
	}
}

// awaitAll runs body on n goroutines, one per party, and waits for them.
func awaitAll(n int, body func(party int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			body(i)
		}()
	}
	wg.Wait()
}

func TestBarrierReleasesAllParties(t *testing.T) {
	for _, m := range barrierModes {
		t.Run(m.name, func(t *testing.T) {
			const n = 8
			b := newBarrier(n, m.spin)
			var after atomic.Int32
			awaitAll(n, func(int) {
				b.Await()
				after.Add(1)
			})
			if got := after.Load(); got != n {
				t.Fatalf("%d parties passed, want %d", got, n)
			}
		})
	}
}

func TestBarrierIsReusableAndOrdered(t *testing.T) {
	// Each of n workers increments a shared counter once per round; the
	// barrier guarantees all round-r increments complete before any party
	// leaves the round's first crossing, and none of round r+1 starts before
	// every party has left its second, so after the first crossing the
	// counter reads exactly (r+1)·n.
	for _, m := range barrierModes {
		t.Run(m.name, func(t *testing.T) {
			const n, rounds = 4, 200
			b := newBarrier(n, m.spin)
			var counter, violations atomic.Int64
			awaitAll(n, func(int) {
				for r := 0; r < rounds; r++ {
					counter.Add(1)
					b.Await()
					if counter.Load() != int64((r+1)*n) {
						violations.Add(1)
					}
					b.Await()
				}
			})
			if v := violations.Load(); v != 0 {
				t.Fatalf("%d barrier ordering violations", v)
			}
			if c := counter.Load(); c != n*rounds {
				t.Fatalf("counter = %d, want %d", c, n*rounds)
			}
		})
	}
}

// TestBarrierVisibility: the plain writes a party makes before Await are
// visible to every party after it, spinning or parked. Run under -race, the
// detector reports any crossing that does not order them.
func TestBarrierVisibility(t *testing.T) {
	for _, m := range barrierModes {
		t.Run(m.name, func(t *testing.T) {
			const n, rounds = 4, 1000
			b := newBarrier(n, m.spin)
			slots := make([]int, n)
			var stale atomic.Int64
			awaitAll(n, func(i int) {
				for r := 1; r <= rounds; r++ {
					slots[i] = r
					b.Await()
					for _, v := range slots {
						if v != r {
							stale.Add(1)
						}
					}
					b.Await()
				}
			})
			if s := stale.Load(); s != 0 {
				t.Fatalf("%d stale slot reads after a crossing", s)
			}
		})
	}
}

// TestBarrierSpinFallsBackToPark: while one party is held, the others spend
// their budget and park; releasing the held party frees them all.
func TestBarrierSpinFallsBackToPark(t *testing.T) {
	const n = 4
	b := newBarrier(n, spinBudget)
	hold := make(chan struct{})
	var passed atomic.Int32
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			if i == 0 {
				<-hold
			}
			b.Await()
			passed.Add(1)
		}()
	}
	waitParked(t, b, n-1)
	if p := passed.Load(); p != 0 {
		t.Fatalf("%d parties passed before the held one arrived", p)
	}
	close(hold)
	wg.Wait()
	if p, s := passed.Load(), b.parked(); p != n || s != 0 {
		t.Fatalf("after release: %d passed, %d still parked; want %d, 0", p, s, n)
	}
}

// TestBarrierGateParksWithoutSpinning: when the process's live engines
// outnumber its processors, a waiter parks rather than spend its budget,
// whether the gate is closed when it arrives or closes while it spins. The
// budget here is an hour, so only the gate can park it.
func TestBarrierGateParksWithoutSpinning(t *testing.T) {
	over := int64(runtime.GOMAXPROCS(0)) + 1
	closeGate := func(t *testing.T) {
		liveEngines.Add(over)
		t.Cleanup(func() { liveEngines.Add(-over) })
	}
	for _, whileSpinning := range []bool{false, true} {
		name := "on arrival"
		if whileSpinning {
			name = "while spinning"
		}
		t.Run(name, func(t *testing.T) {
			b := newBarrier(2, time.Hour)
			if !whileSpinning {
				closeGate(t)
			}
			done := make(chan struct{})
			go func() {
				b.Await()
				close(done)
			}()
			if whileSpinning {
				for b.arrived.Load() == 0 {
					runtime.Gosched()
				}
				closeGate(t)
			}
			waitParked(t, b, 1)
			b.Await()
			<-done
		})
	}
}

func TestBarrierSingleParty(t *testing.T) {
	for _, m := range barrierModes {
		b := newBarrier(1, m.spin)
		for i := 0; i < 10; i++ {
			b.Await() // must never block
		}
	}
}

func TestNewBarrierPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("newBarrier(0) did not panic")
		}
	}()
	newBarrier(0, 0)
}

func BenchmarkBarrier8(b *testing.B) {
	for _, m := range barrierModes {
		b.Run(m.name, func(b *testing.B) {
			const n = 8
			bar := newBarrier(n, m.spin)
			awaitAll(n, func(int) {
				for r := 0; r < b.N; r++ {
					bar.Await()
				}
			})
		})
	}
}
