package runctl

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"massf/internal/core"
	"massf/internal/experiments"
	"massf/internal/runspec"
	"massf/internal/traffic"
)

// TestSetupCachePanicDoesNotPoison: a build that panics fails its own get,
// and the next get of the same key runs its build instead of serving the
// nil Setup the panic left behind.
func TestSetupCachePanicDoesNotPoison(t *testing.T) {
	c := newSetupCache(4)
	st, cached, err := c.get("k", func() (*experiments.Setup, error) {
		panic("slice bounds out of range [:100] with capacity 16")
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") || st != nil || cached {
		t.Fatalf("panicking build returned (%v, cached=%v, %v), want a panic error", st, cached, err)
	}
	want := &experiments.Setup{}
	st, cached, err = c.get("k", func() (*experiments.Setup, error) { return want, nil })
	if err != nil || cached || st != want {
		t.Fatalf("build after a panic returned (%p, cached=%v, %v), want (%p, cached=false, nil)", st, cached, err, want)
	}
	if st, cached, _ := c.get("k", nil); st != want || !cached {
		t.Fatalf("third get returned (%p, cached=%v), want the cached Setup", st, cached)
	}
}

func TestKeyBoundaries(t *testing.T) {
	if contentKey([]byte("ab"), []byte("c")) == contentKey([]byte("a"), []byte("bc")) {
		t.Fatal("part boundaries do not contribute to the key")
	}
	if contentKey([]byte("x")) != contentKey([]byte("x")) {
		t.Fatal("key not deterministic")
	}
}

// TestSetupCacheEvictsLeastRecentlyUsed: a ninth distinct setup evicts the
// least recently used entry — a get refreshes an entry, memoizing a
// mapping does not — and the entry's mapping memo goes with it.
func TestSetupCacheEvictsLeastRecentlyUsed(t *testing.T) {
	c := newSetupCache(setupCacheSize)
	build := func() (*experiments.Setup, error) { return &experiments.Setup{}, nil }
	for i := 0; i < setupCacheSize; i++ {
		if _, _, err := c.get(fmt.Sprint(i), build); err != nil {
			t.Fatal(err)
		}
	}
	if _, cached, _ := c.get("0", nil); !cached {
		t.Fatal("a full cache did not serve its oldest entry")
	}
	memo := &core.Mapping{}
	if mp, _ := c.mapping("1", "TOP2/2", func() (*core.Mapping, error) { return memo, nil }); mp != memo {
		t.Fatal("mapping not memoized on its setup")
	}
	if _, cached, _ := c.get(fmt.Sprint(setupCacheSize), build); cached {
		t.Fatal("a new key was served from the cache")
	}
	if n := c.len(); n != setupCacheSize {
		t.Fatalf("cache holds %d entries, want %d", n, setupCacheSize)
	}
	c.mu.Lock()
	_, kept := c.entries["0"]
	_, stale := c.entries["1"]
	c.mu.Unlock()
	if !kept || stale {
		t.Fatalf("after the ninth setup: refreshed entry kept %v, least recently used still cached %v", kept, stale)
	}
	rebuilt := false
	mp, err := c.mapping("1", "TOP2/2", func() (*core.Mapping, error) { rebuilt = true; return &core.Mapping{}, nil })
	if err != nil || !rebuilt || mp == memo {
		t.Fatalf("evicted setup's mapping served from its memo (rebuilt %v, err %v)", rebuilt, err)
	}
}

// TestConcurrentWarmRunsMatchARunAlone: the runs of one cached spec share
// its Setup, which no run writes. Four runs submitted at once build on it
// in parallel, and each must report what a run alone did: the same
// events, HTTP requests and HTTP responses.
func TestConcurrentWarmRunsMatchARunAlone(t *testing.T) {
	const concurrent = 4
	spec := Spec{
		Flat:     &FlatSpec{Routers: 40, Hosts: 40},
		Approach: "HTOP",
		App:      "none",
		RunSpec:  runspec.RunSpec{Engines: 2, Seconds: 8, Seed: 3},
	}
	type counts struct {
		events, requests, responses uint64
		cached                      bool
	}
	mgr := NewManagerOpts(Options{Workers: concurrent, RingCap: 64})
	defer shutdownMgr(t, mgr)
	// A finished run keeps no traffic stats, so each run's are taken from
	// its prepared simulation and read once the run is done.
	var stats sync.Map // run ID → *traffic.HTTPStats
	mgr.beforeRun = func(r *Run, p *experiments.Prepared) { stats.Store(r.ID, p.HTTP) }
	run := func() (counts, error) {
		r, err := mgr.Submit(spec)
		if err != nil {
			return counts{}, err
		}
		<-r.done
		info := r.Info()
		st, ok := stats.Load(r.ID)
		if info.State != StateDone || !ok {
			return counts{}, fmt.Errorf("run %s ended %s (err=%q)", r.ID, info.State, info.Error)
		}
		http := st.(*traffic.HTTPStats)
		return counts{info.Events, http.TotalRequests(), http.TotalResponses(), info.BuildCached}, nil
	}
	want, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if want.cached || want.responses == 0 {
		t.Fatalf("first run %+v: want a cold build that completes HTTP responses", want)
	}
	t.Logf("a run alone: %+v", want)
	want.cached = true
	var got [concurrent]counts
	var errs [concurrent]error
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = run()
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != want {
			t.Errorf("concurrent warm run %d: %+v, want %+v", i, got[i], want)
		}
	}
}
