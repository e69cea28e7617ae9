package scache

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"testing"

	"massf/internal/model"
	"massf/internal/topology"
)

func TestKeyBoundaries(t *testing.T) {
	if Key([]byte("ab"), []byte("c")) == Key([]byte("a"), []byte("bc")) {
		t.Fatal("part boundaries do not contribute to the key")
	}
	if Key([]byte("x")) != Key([]byte("x")) {
		t.Fatal("key not deterministic")
	}
}

func TestGetPutRoundTrip(t *testing.T) {
	c, err := open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Key([]byte("spec"), []byte("seed"))
	if _, ok, err := c.get(key); err != nil || ok {
		t.Fatalf("expected clean miss, got ok=%v err=%v", ok, err)
	}
	want := []byte("artifact-bytes")
	if err := c.put(key, want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := c.get(key)
	if err != nil || !ok || !bytes.Equal(got, want) {
		t.Fatalf("round trip: ok=%v err=%v got=%q", ok, err, got)
	}
}

// TestConcurrentDistinctScenariosNeverCollide is the regression test for
// the shared-temp-dir bug: two runs on different topologies sharing one
// cache directory must never read each other's artifacts, even fully
// concurrently. Content addressing makes the paths distinct; atomic
// renames make each entry appear whole or not at all.
func TestConcurrentDistinctScenariosNeverCollide(t *testing.T) {
	dir := t.TempDir()
	nets := make([]*model.Network, 2)
	keys := make([]string, 2)
	encoded := make([][]byte, 2)
	for i, seed := range []int64{11, 22} {
		net, err := topology.GenerateFlat(topology.FlatOptions{Routers: 60, Hosts: 20, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		nets[i] = net
		encoded[i] = model.Encode(net)
		keys[i] = Key([]byte(fmt.Sprintf("flat/routers=60/seed=%d", seed)))
	}
	if keys[0] == keys[1] {
		t.Fatal("different scenarios produced the same cache key")
	}
	const writers = 8
	var wg sync.WaitGroup
	errs := make(chan error, 2*writers)
	for w := 0; w < writers; w++ {
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				c, err := open(dir) // each "run" opens the shared dir itself
				if err != nil {
					errs <- err
					return
				}
				if err := c.put(keys[i], encoded[i]); err != nil {
					errs <- err
					return
				}
				data, ok, err := c.get(keys[i])
				if err != nil || !ok {
					errs <- fmt.Errorf("get after put: ok=%v err=%v", ok, err)
					return
				}
				if !bytes.Equal(data, encoded[i]) {
					errs <- fmt.Errorf("scenario %d read back a different artifact", i)
					return
				}
				net, err := model.Decode(data)
				if err != nil {
					errs <- err
					return
				}
				if len(net.Nodes) != len(nets[i].Nodes) || len(net.Links) != len(nets[i].Links) {
					errs <- fmt.Errorf("scenario %d decoded to a different network", i)
				}
			}(i)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// Network generates on a miss, decodes on a hit, regenerates over a corrupt
// entry, and bypasses the disk entirely without a directory.
func TestNetworkReadThrough(t *testing.T) {
	dir := t.TempDir()
	key := Key([]byte("flat/routers=30/seed=5"))
	calls := 0
	generate := func() (*model.Network, error) {
		calls++
		return topology.GenerateFlat(topology.FlatOptions{Routers: 30, Hosts: 10, Seed: 5})
	}
	get := func(dir string) []byte {
		t.Helper()
		net, err := Network(dir, key, generate)
		if err != nil {
			t.Fatal(err)
		}
		return model.Encode(net)
	}
	want := get(dir)
	if calls != 1 {
		t.Fatalf("miss generated %d times, want 1", calls)
	}
	if got := get(dir); calls != 1 || !bytes.Equal(got, want) {
		t.Fatalf("hit: generated %d times (want 1), identical=%v", calls, bytes.Equal(got, want))
	}
	c, err := open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.path(key), []byte("not a network"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := get(dir); calls != 2 || !bytes.Equal(got, want) {
		t.Fatalf("corrupt entry: generated %d times (want 2), identical=%v", calls, bytes.Equal(got, want))
	}
	if got := get(""); calls != 3 || !bytes.Equal(got, want) {
		t.Fatalf("no cache dir: generated %d times (want 3), identical=%v", calls, bytes.Equal(got, want))
	}
}
