package runctl

import (
	"strings"
	"testing"

	"massf/internal/experiments"
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
