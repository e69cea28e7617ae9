package telemetry

import (
	"sync"
	"testing"
)

// The contract the window trace and netmon's flow-completion stream both
// rely on, on an unevicting Ring[int].
func TestRingContract(t *testing.T) {
	t.Run("replay then follow is gapless", func(t *testing.T) {
		const n = 2000
		s := NewRing[int](n)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				s.Append(i)
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
		s := NewRing[int](8)
		_, slow, cancel := s.Subscribe(1)
		defer cancel()
		for i := 0; i < 5; i++ {
			s.Append(i) // would deadlock here if a full channel blocked
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
		s := NewRing[int](8)
		s.Append(1)
		_, ch, cancel := s.Subscribe(4)
		s.Close()
		if _, open := <-ch; open {
			t.Fatal("channel still open after Close")
		}
		cancel() // the channel is already closed: must not close it again
		cancel()
		s.Close()
		s.Append(2)
		past, ch2, cancel2 := s.Subscribe(4)
		defer cancel2()
		if len(past) != 1 || past[0] != 1 {
			t.Fatalf("replay after close = %v, want [1] (appending to a closed ring is a no-op)", past)
		}
		if _, open := <-ch2; open {
			t.Fatal("subscription taken after Close is not closed")
		}
	})
}
