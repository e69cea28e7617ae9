// Package scache is the content-addressed on-disk scenario cache: built
// scenario artifacts (wire-encoded networks, internal/model.Encode) stored
// under the SHA-256 of the inputs that define them — topology/DML spec,
// seed, and partition. Entries are immutable once written, so a hit is
// always safe to use and concurrent runs on DIFFERENT scenarios can share
// one directory without collision: distinct content hashes to distinct
// paths by construction (this replaces cmd/simcheck's shared temp dir,
// where a second scenario reused — and could trample — the first one's
// files).
//
// Writes are atomic: data lands in a unique temp file in the cache
// directory and is renamed into place, so a reader never observes a torn
// entry and two writers racing on the SAME key both leave the identical
// full artifact.
package scache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"

	"massf/internal/model"
)

// Key derives the content address of an artifact from the parts that
// define it. Each part is length-prefixed before hashing so boundary
// ambiguity ("ab","c" vs "a","bc") cannot alias keys.
func Key(parts ...[]byte) string {
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

// cache is one cache directory.
type cache struct {
	dir string
}

// open creates (if needed) and returns the cache at dir; "auto" selects a
// per-user default under os.UserCacheDir.
func open(dir string) (*cache, error) {
	if dir == "auto" {
		base, err := os.UserCacheDir()
		if err != nil {
			base = os.TempDir()
		}
		dir = filepath.Join(base, "massf", "scenarios")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("scache: %w", err)
	}
	return &cache{dir: dir}, nil
}

// path returns where the entry for key lives (whether or not it exists).
func (c *cache) path(key string) string {
	return filepath.Join(c.dir, key+".scn")
}

// get returns the artifact stored under key, or ok=false on a miss.
func (c *cache) get(key string) (data []byte, ok bool, err error) {
	data, err = os.ReadFile(c.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("scache: %w", err)
	}
	return data, true, nil
}

// put stores data under key atomically. An existing entry is left in place
// — entries are content-addressed, so it is identical by definition.
func (c *cache) put(key string, data []byte) error {
	path := c.path(key)
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	tmp, err := os.CreateTemp(c.dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("scache: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("scache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("scache: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("scache: %w", err)
	}
	return nil
}

// Network is the read-through for generated topologies: the network whose
// content address is key, decoded from the cache at dir on a hit, otherwise
// generated and published for the next run (and for the other workers on
// the same machine). An empty dir means no cache. Cache failures — a
// directory that cannot be opened, a stale or corrupt entry (e.g. after a
// codec version bump), a failed write — degrade to generation: the cache is
// an accelerator, never a correctness dependency.
func Network(dir, key string, generate func() (*model.Network, error)) (*model.Network, error) {
	if dir == "" {
		return generate()
	}
	c, err := open(dir)
	if err != nil {
		return generate()
	}
	if data, ok, _ := c.get(key); ok {
		if net, err := model.Decode(data); err == nil {
			return net, nil
		}
	}
	net, err := generate()
	if err != nil {
		return nil, err
	}
	_ = c.put(key, model.Encode(net)) // best effort; two racing writers leave the identical entry
	return net, nil
}
