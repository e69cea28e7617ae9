package telemetry

// WindowRecord is one barrier window's trace record, published by engine 0
// of the parallel engine after the window's exchange phase. Per-engine
// slices are indexed by engine ID.
type WindowRecord struct {
	// Seq is the record's position in the append order (0-based,
	// monotonic). With a full ring, old records are evicted but Seq keeps
	// counting, so consumers can detect gaps.
	Seq uint64 `json:"seq"`
	// StartNS and EndNS bound the window in simulated time (idle time is
	// fast-forwarded over, so a window may start later than the previous
	// one ended).
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	// WallNS is the host wall-clock time spent since the previous
	// published window.
	WallNS int64 `json:"wall_ns"`
	// Events[e] is the number of kernel events engine e processed in this
	// window.
	Events []uint64 `json:"events"`
	// Remote is the number of cross-partition events exchanged at this
	// window's barrier.
	Remote uint64 `json:"remote"`
	// RemoteSends[e] is the number of cross-partition events engine e
	// emitted during this window (summing to Remote).
	RemoteSends []uint64 `json:"remote_sends,omitempty"`
	// ComputeNS[e] is the host wall time engine e spent executing its
	// local events this window (the span before it hit the barrier).
	ComputeNS []int64 `json:"compute_ns,omitempty"`
	// BarrierWaitNS[e] is the time engine e spent blocked at the previous
	// window's barrier (engines publish their wait one window late, which
	// keeps publication inside the barrier-synchronized scratch exchange).
	BarrierWaitNS []int64 `json:"barrier_wait_ns,omitempty"`
	// ExchangeNS[e] is the time engine e spent in the previous window's
	// exchange phase (collecting, ordering and scheduling incoming remote
	// events). Like BarrierWaitNS it is published one window late: the
	// exchange only finishes after the window's record is appended.
	ExchangeNS []int64 `json:"exchange_ns,omitempty"`
	// QueueDepth[e] is engine e's pending event count at the end of the
	// window (before the exchange).
	QueueDepth []int `json:"queue_depth,omitempty"`
	// MaxBusyNS is the modeled busy time of the window's most loaded
	// engine.
	MaxBusyNS int64 `json:"max_busy_ns"`
}

// Ring is a bounded in-memory trace of WindowRecords with live
// subscriptions. Append keeps the most recent records (evicting the
// oldest) and fans each record out through the embedded Fanout, whose
// Subscribe and Close are the ring's: a subscriber whose channel is
// full misses records (detectable via Seq) rather than stalling the
// simulation, and retained records stay readable via Snapshot after Close.
//
// Records come from Get and go back through Append, which recycles the
// per-engine slices of evicted records through free, so a saturated ring
// appends with zero allocations. The aliasing this creates is contained
// here: Snapshot and subscriber fan-out deep-copy records on the way out.
type Ring struct {
	Fanout[WindowRecord]
	buf   []WindowRecord
	cap   int
	total uint64
	free  []WindowRecord
}

// NewRing returns a ring keeping at most capacity records (default 1024
// when capacity ≤ 0).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = 1024
	}
	r := &Ring{cap: capacity}
	r.Past = r.snapshotLocked
	return r
}

// resize returns a zeroed slice of length n, reusing s's capacity when it
// can.
func resize[T uint64 | int64 | int](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Get returns a zeroed WindowRecord whose per-engine slices have length
// engines, recycled from previously evicted records when possible. The
// caller fills it in and hands it back via Append — the slices then belong
// to the ring again.
func (r *Ring) Get(engines int) WindowRecord {
	r.mu.Lock()
	var rec WindowRecord
	if n := len(r.free); n > 0 {
		rec = r.free[n-1]
		r.free[n-1] = WindowRecord{}
		r.free = r.free[:n-1]
	}
	r.mu.Unlock()
	return WindowRecord{
		Events:        resize(rec.Events, engines),
		RemoteSends:   resize(rec.RemoteSends, engines),
		ComputeNS:     resize(rec.ComputeNS, engines),
		BarrierWaitNS: resize(rec.BarrierWaitNS, engines),
		ExchangeNS:    resize(rec.ExchangeNS, engines),
		QueueDepth:    resize(rec.QueueDepth, engines),
	}
}

// copyRecord deep-copies a record's per-engine slices; used on every read
// path, where retained records' slices get recycled.
func copyRecord(rec WindowRecord) WindowRecord {
	rec.Events = append([]uint64(nil), rec.Events...)
	rec.RemoteSends = append([]uint64(nil), rec.RemoteSends...)
	rec.ComputeNS = append([]int64(nil), rec.ComputeNS...)
	rec.BarrierWaitNS = append([]int64(nil), rec.BarrierWaitNS...)
	rec.ExchangeNS = append([]int64(nil), rec.ExchangeNS...)
	rec.QueueDepth = append([]int(nil), rec.QueueDepth...)
	return rec
}

// Append stores rec (stamping rec.Seq) and publishes it to subscribers.
// Appending to a closed ring is a no-op. The evicted record's slices
// return to the free list (so rec's own slices must come from Get); with
// no subscribers attached a saturated ring appends without allocating.
func (r *Ring) Append(rec WindowRecord) {
	r.Publish(func() WindowRecord {
		rec.Seq = r.total
		if len(r.buf) < r.cap {
			r.buf = append(r.buf, rec)
		} else {
			idx := int(r.total) % r.cap
			r.free = append(r.free, r.buf[idx])
			r.buf[idx] = rec
		}
		r.total++
		if len(r.subs) > 0 {
			// Channel buffers outlive the record's slot in the ring; hand
			// subscribers a stable copy.
			return copyRecord(rec)
		}
		return rec
	})
}

func (r *Ring) snapshotLocked() []WindowRecord {
	out := make([]WindowRecord, 0, len(r.buf))
	if r.total > uint64(len(r.buf)) { // wrapped: oldest sits at total%cap
		start := int(r.total) % r.cap
		out = append(out, r.buf[start:]...)
		out = append(out, r.buf[:start]...)
	} else {
		out = append(out, r.buf...)
	}
	for i := range out {
		out[i] = copyRecord(out[i])
	}
	return out
}

// Snapshot returns the retained records, oldest first.
func (r *Ring) Snapshot() []WindowRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snapshotLocked()
}
