package telemetry

import "sync"

// WindowRecord is one barrier window's trace record, published by engine 0
// of the parallel engine after the window's exchange phase. Per-engine
// slices are indexed by engine ID.
type WindowRecord struct {
	// Seq is the record's position in the run's window order (0-based,
	// monotonic), stamped by Publish. With a full ring, old records are
	// evicted but Seq keeps counting, so consumers can detect gaps.
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

// Ring is a bounded live stream: it keeps the most recent values,
// evicting the oldest first, and offers every appended value to its
// subscribers. One mutex covers the buffer and the subscriptions, which is
// what makes Subscribe's replay-then-follow gapless and duplicate-free. A
// subscriber whose channel is full misses values rather than stalling the
// writer, and retained values stay readable via Snapshot after Close.
// Values are shared with every reader as they are, so a writer must not
// change a value (or what it points to) once it has appended it.
type Ring[T any] struct {
	mu     sync.Mutex
	buf    []T
	cap    int
	total  uint64 // values ever appended; the oldest retained sits at total%cap once full
	subs   map[int]chan T
	nextID int
	closed bool
}

// NewRing returns a ring keeping at most capacity values (default 1024
// when capacity ≤ 0).
func NewRing[T any](capacity int) *Ring[T] {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Ring[T]{cap: capacity}
}

// Append stores v, evicting the oldest value when the ring is full, and
// offers it to every subscriber without blocking. Appending to a closed
// ring is a no-op.
func (r *Ring[T]) Append(v T) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, v)
	} else {
		r.buf[r.total%uint64(r.cap)] = v
	}
	r.total++
	for _, ch := range r.subs {
		select {
		case ch <- v:
		default:
		}
	}
}

func (r *Ring[T]) snapshotLocked() []T {
	start := 0
	if len(r.buf) == r.cap {
		start = int(r.total % uint64(r.cap))
	}
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[start:]...)
	return append(out, r.buf[:start]...)
}

// Snapshot returns the retained values, oldest first.
func (r *Ring[T]) Snapshot() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snapshotLocked()
}

// Subscribe atomically snapshots the retained values and registers a live
// channel (of the given buffer, default 64) for everything appended
// afterwards — together a gapless, duplicate-free stream, barring
// slow-subscriber drops. The channel is closed when the ring closes or
// cancel is called; cancel is idempotent and safe after Close.
func (r *Ring[T]) Subscribe(buffer int) (past []T, ch <-chan T, cancel func()) {
	if buffer <= 0 {
		buffer = 64
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	past = r.snapshotLocked()
	c := make(chan T, buffer)
	if r.closed {
		close(c)
		return past, c, func() {}
	}
	if r.subs == nil {
		r.subs = make(map[int]chan T)
	}
	id := r.nextID
	r.nextID++
	r.subs[id] = c
	return past, c, func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		if sub, ok := r.subs[id]; ok {
			delete(r.subs, id)
			close(sub)
		}
	}
}

// Close marks the end of the stream and closes every subscriber channel.
// Close is idempotent; the retained values stay readable.
func (r *Ring[T]) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.closed = true
	for id, ch := range r.subs {
		delete(r.subs, id)
		close(ch)
	}
}
