package telemetry

import "sync"

// Fanout is the live-subscription half of a bounded stream, embedded by the
// type that keeps the stream's replay buffer (Ring here, netmon's
// flow-completion stream). Its one lock covers the embedder's buffer too —
// the buffer is touched only inside Publish's store and Past — which is
// what makes Subscribe's replay-then-follow gapless and duplicate-free.
// The zero value is ready to use.
type Fanout[T any] struct {
	// Past, set before first use, returns a copy of the embedder's
	// retained records, oldest first. Subscribe calls it under the lock.
	Past func() []T

	mu     sync.Mutex
	subs   map[int]chan T
	nextID int
	closed bool
}

// Publish calls store under the lock — where the embedder files the record
// in its replay buffer — and offers the value store returns to every
// subscriber without blocking: a subscriber whose channel is full misses
// the record rather than stalling the simulation. Publishing to a closed
// fan-out is a no-op; store is not called.
func (f *Fanout[T]) Publish(store func() T) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	v := store()
	for _, ch := range f.subs {
		select {
		case ch <- v:
		default:
		}
	}
}

// Subscribe atomically snapshots the retained records and registers a live
// channel (of the given buffer, default 64) for everything published
// afterwards — together a gapless, duplicate-free stream, barring
// slow-subscriber drops. The channel is closed when the fan-out closes or
// cancel is called; cancel is idempotent and safe after close.
func (f *Fanout[T]) Subscribe(buffer int) (past []T, ch <-chan T, cancel func()) {
	if buffer <= 0 {
		buffer = 64
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	past = f.Past()
	c := make(chan T, buffer)
	if f.closed {
		close(c)
		return past, c, func() {}
	}
	if f.subs == nil {
		f.subs = make(map[int]chan T)
	}
	id := f.nextID
	f.nextID++
	f.subs[id] = c
	return past, c, func() {
		f.mu.Lock()
		defer f.mu.Unlock()
		if sub, ok := f.subs[id]; ok {
			delete(f.subs, id)
			close(sub)
		}
	}
}

// Close marks the end of the stream and closes every subscriber channel.
// Close is idempotent; what the embedder retained stays readable.
func (f *Fanout[T]) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.closed = true
	for id, ch := range f.subs {
		delete(f.subs, id)
		close(ch)
	}
}
