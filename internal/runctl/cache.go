package runctl

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"massf/internal/core"
	"massf/internal/experiments"
)

// setupCache memoizes built scenarios (*experiments.Setup) so a repeat
// submission of the same topology+roles+seed skips regeneration — the
// difference between a multi-second cold build and a millisecond
// submit-to-first-window latency. Entries are shared across concurrent
// runs: a cached Setup's Net, Router, Sync and role slices are
// immutable after construction (interdomain.Router is safe for concurrent
// use after New returns), and the launch path takes a per-run shallow copy
// for the mutable scale/profile fields. Builds singleflight through a
// sync.Once per key, so a burst of identical submissions pays for one
// build and the rest block on it rather than duplicating the work.
type setupCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*setupEntry
	order   []string // LRU order, oldest first
}

type setupEntry struct {
	once sync.Once
	st   *experiments.Setup
	err  error

	// maps memoizes deterministic mapping results derived from this
	// setup, keyed by approach+engines. A mapping is pure in (net, sync,
	// seed, approach, engines) and read-only downstream (Prepare and the
	// straggler attribution only read MLL/Part), so cached runs skip the
	// partitioning pass too — at scale it dominates the warm path.
	mapMu sync.Mutex
	maps  map[string]*core.Mapping
}

func newSetupCache(capacity int) *setupCache {
	if capacity < 1 {
		capacity = 1
	}
	return &setupCache{cap: capacity, entries: make(map[string]*setupEntry)}
}

// get returns the Setup for key, running build at most once per cached
// lifetime. cached reports whether this call was served without running
// build (the warm-path signal surfaced in Info).
// Failed builds are not retained, so a transient failure does not poison
// the key.
func (c *setupCache) get(key string, build func() (*experiments.Setup, error)) (st *experiments.Setup, cached bool, err error) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &setupEntry{}
		c.entries[key] = e
		c.order = append(c.order, key)
		c.evictLocked()
	} else {
		c.touchLocked(key)
	}
	c.mu.Unlock()
	ran := false
	e.once.Do(func() {
		ran = true
		// A panicking build still completes the Once; record the panic as
		// the entry's error so the key is dropped like any failed build.
		defer func() {
			if p := recover(); p != nil {
				e.st, e.err = nil, fmt.Errorf("runctl: setup build panicked: %v", p)
			}
		}()
		e.st, e.err = build()
	})
	if e.err != nil {
		c.mu.Lock()
		if c.entries[key] == e {
			delete(c.entries, key)
			c.dropLocked(key)
		}
		c.mu.Unlock()
		return nil, false, e.err
	}
	return e.st, !ran, nil
}

// mapping returns the memoized mapping for (key, mapKey), computing it
// via build on a miss. The cache is scoped to the setup entry, so
// evicting a scenario drops its mappings with it; a setup that is no
// longer cached (evicted between get and here) just computes uncached.
func (c *setupCache) mapping(key, mapKey string, build func() (*core.Mapping, error)) (*core.Mapping, error) {
	c.mu.Lock()
	e := c.entries[key]
	c.mu.Unlock()
	if e == nil {
		return build()
	}
	e.mapMu.Lock()
	defer e.mapMu.Unlock()
	if mp, ok := e.maps[mapKey]; ok {
		return mp, nil
	}
	mp, err := build()
	if err != nil {
		return nil, err
	}
	if e.maps == nil {
		e.maps = make(map[string]*core.Mapping)
	}
	e.maps[mapKey] = mp
	return mp, nil
}

// len reports the number of cached (or in-flight) entries.
func (c *setupCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

func (c *setupCache) touchLocked(key string) {
	c.dropLocked(key)
	c.order = append(c.order, key)
}

func (c *setupCache) dropLocked(key string) {
	for i, k := range c.order {
		if k == key {
			c.order = append(c.order[:i], c.order[i+1:]...)
			return
		}
	}
}

func (c *setupCache) evictLocked() {
	for len(c.entries) > c.cap && len(c.order) > 0 {
		victim := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, victim)
	}
}

// setupKey derives the content address of a spec's built scenario: the
// topology source (with, for the generators, the seed they consume) and
// every knob that reaches role selection (seed and requested
// client/server/app-host counts). Engines, horizon, event cost and
// fidelity deliberately stay out — they are per-run overlays applied to a
// copy of the cached Setup.
func setupKey(s *Spec) string {
	var topo string
	switch {
	case s.DML != "":
		topo = "dml:" + s.DML
	case s.Flat != nil:
		topo = fmt.Sprintf("flat:r=%d h=%d seed=%d", s.Flat.Routers, s.Flat.Hosts, s.Seed)
	default:
		topo = fmt.Sprintf("multias:a=%d rpa=%d h=%d seed=%d",
			s.MultiAS.ASes, s.MultiAS.RoutersPerAS, s.MultiAS.Hosts, s.Seed)
	}
	return contentKey(
		[]byte(topo),
		[]byte(fmt.Sprintf("seed=%d clients=%d servers=%d app=%d",
			s.Seed, s.Clients, s.Servers, s.AppHosts())),
	)
}

// contentKey hashes parts into one key. Each part is length-prefixed
// before hashing so boundary ambiguity ("ab","c" vs "a","bc") cannot alias
// keys.
func contentKey(parts ...[]byte) string {
	h := sha256.New()
	var lenBuf [8]byte
	for _, p := range parts {
		n := len(p)
		for i := 0; i < 8; i++ {
			lenBuf[i] = byte(n >> (8 * i))
		}
		h.Write(lenBuf[:])
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}
