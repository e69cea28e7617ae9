package telemetry

import (
	"sync"
	"testing"
)

// intStream is the smallest embedder: an unbounded replay buffer under the
// fan-out's lock.
type intStream struct {
	Fanout[int]
	buf []int
}

func newIntStream() *intStream {
	s := &intStream{}
	s.Past = func() []int { return append([]int(nil), s.buf...) }
	return s
}

func (s *intStream) publish(v int) {
	s.Publish(func() int { s.buf = append(s.buf, v); return v })
}

// The contract Ring and netmon's flow-completion stream both inherit.
func TestFanoutContract(t *testing.T) {
	t.Run("replay then follow is gapless", func(t *testing.T) {
		const n = 2000
		s := newIntStream()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				s.publish(i)
			}
			s.Close()
		}()
		// Subscribing at an arbitrary point of the publisher's progress, with
		// room for everything still to come, must see 0..n-1 exactly once.
		past, ch, cancel := s.Subscribe(n)
		defer cancel()
		got := past
		for v := range ch {
			got = append(got, v)
		}
		wg.Wait()
		if len(got) != n {
			t.Fatalf("saw %d records (%d replayed), want %d", len(got), len(past), n)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("record %d is %d: gap or duplicate at the replay/live seam (replayed %d)", i, v, len(past))
			}
		}
	})

	t.Run("full subscriber drops instead of blocking", func(t *testing.T) {
		s := newIntStream()
		_, slow, cancel := s.Subscribe(1)
		defer cancel()
		for i := 0; i < 5; i++ {
			s.publish(i) // would deadlock here if a full channel blocked
		}
		if v := <-slow; v != 0 {
			t.Fatalf("slow subscriber's one slot holds %d, want 0", v)
		}
		select {
		case v := <-slow:
			t.Fatalf("slow subscriber got %d beyond its buffer", v)
		default:
		}
		past, _, cancel2 := s.Subscribe(1)
		cancel2()
		if len(past) != 5 {
			t.Fatalf("replay holds %d records, want 5 (drops are per subscriber)", len(past))
		}
	})

	t.Run("close ends streams and cancel after close is a no-op", func(t *testing.T) {
		s := newIntStream()
		s.publish(1)
		_, ch, cancel := s.Subscribe(4)
		s.Close()
		if _, open := <-ch; open {
			t.Fatal("channel still open after Close")
		}
		cancel() // the channel is already closed: must not close it again
		cancel()
		s.Close()
		s.publish(2)
		past, ch2, cancel2 := s.Subscribe(4)
		defer cancel2()
		if len(past) != 1 || past[0] != 1 {
			t.Fatalf("replay after close = %v, want [1] (publishing to a closed fan-out is a no-op)", past)
		}
		if _, open := <-ch2; open {
			t.Fatal("subscription taken after Close is not closed")
		}
	})
}
