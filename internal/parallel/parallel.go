// Package parallel runs one piece of work on up to GOMAXPROCS goroutines:
// the worker loop shared by the routing-table fill and the mapper's T_mll
// sweep.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Run calls work on up to n goroutines at once, the caller's among them,
// and returns once every call has returned. Each call claims its own share
// of the work, which must not depend on which goroutine runs it, and stops
// claiming once stopped reports true.
//
// A panic in any call, the caller's own included, sets stopped for the
// others; once they have all returned, Run raises the first panic again on
// the caller's goroutine, where a caller's recover can catch it.
func Run(n int, work func(stopped func() bool)) {
	var wg sync.WaitGroup
	var stop atomic.Bool
	var panicked atomic.Pointer[any]
	call := func() {
		defer func() {
			if p := recover(); p != nil {
				panicked.CompareAndSwap(nil, &p)
				stop.Store(true)
			}
		}()
		work(stop.Load)
	}
	for range min(runtime.GOMAXPROCS(0), n) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			call()
		}()
	}
	call()
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(*p)
	}
}
