package parallel

import (
	"bytes"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

// goid returns the calling goroutine's id, read from its stack header
// ("goroutine N [running]:").
func goid() uint64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, _ := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	return id
}

// TestRunClaimsEveryItemOnce: the calls share n items through an atomic
// claim, and together they take each exactly once.
func TestRunClaimsEveryItemOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n = 1000
	var seen [n]atomic.Int32
	var claimed atomic.Int64
	Run(n, func(stopped func() bool) {
		for i := claimed.Add(1) - 1; i < n && !stopped(); i = claimed.Add(1) - 1 {
			seen[i].Add(1)
		}
	})
	for i := range seen {
		if c := seen[i].Load(); c != 1 {
			t.Fatalf("item %d taken %d times", i, c)
		}
	}
}

// TestRunRaisesPanic: whichever call panics, the caller's own or a
// worker's, the other call sees stopped and stops claiming, Run waits for
// it to return, and only then raises the panic on the caller's goroutine,
// where a caller's recover (runctl's setup build has one) can catch it.
func TestRunRaisesPanic(t *testing.T) {
	for _, tc := range []struct {
		name     string
		inCaller bool
	}{{"caller", true}, {"worker", false}} {
		t.Run(tc.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
			caller := goid()
			started := make(chan struct{})
			var otherReturned, otherStopped atomic.Bool
			func() {
				defer func() {
					if p := recover(); p != "boom" {
						t.Fatalf("recovered %v, want the panic", p)
					}
				}()
				Run(2, func(stopped func() bool) {
					if (goid() == caller) == tc.inCaller {
						<-started
						panic("boom")
					}
					defer otherReturned.Store(true)
					close(started)
					deadline := time.Now().Add(10 * time.Second)
					for !stopped() {
						if time.Now().After(deadline) {
							return
						}
						time.Sleep(time.Millisecond)
					}
					time.Sleep(20 * time.Millisecond) // returns well after the panic
					otherStopped.Store(true)
				})
				t.Fatal("Run returned after a call panicked")
			}()
			if !otherStopped.Load() {
				t.Fatal("the other call did not see stopped after the panic")
			}
			if !otherReturned.Load() {
				t.Fatal("Run raised the panic before the other call returned")
			}
		})
	}
}
